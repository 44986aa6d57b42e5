// Package exp reproduces the paper's evaluation: every figure and table of
// §IV and §VI is a function returning a structured result that cmd/paperexp
// prints in the paper's layout and bench_test.go regenerates under `go
// test -bench`. See DESIGN.md §5 for the experiment index.
package exp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params sets the simulation lengths shared by all experiments.
type Params struct {
	// Warmup is the number of accesses run before measurement.
	Warmup uint64
	// Measure is the number of measured accesses.
	Measure uint64
	// Seed feeds the workload generators and frame allocator.
	Seed uint64
	// SampleEvery is the residency-sampling cadence for the
	// characterization experiments.
	SampleEvery uint64
}

// DefaultParams balances fidelity and runtime: the full paper evaluation
// runs in minutes on a laptop-class machine.
func DefaultParams() Params {
	return Params{Warmup: 300_000, Measure: 1_000_000, Seed: 1, SampleEvery: 20_000}
}

// QuickParams is a faster configuration for tests and demos: long enough
// for the predictors' saturating counters to train, short enough that the
// full grid runs in a few minutes.
func QuickParams() Params {
	return Params{Warmup: 150_000, Measure: 400_000, Seed: 1, SampleEvery: 10_000}
}

// Setup names a machine + predictor combination.
type Setup struct {
	// Name identifies the setup in reports ("dpPred", "SHiP-TLB", ...).
	Name string
	// Config builds the machine configuration (nil means Table I).
	Config func() sim.Config
	// TLB and LLC construct the predictors once the system exists
	// (predictors like AIP need the built structures); nil means none.
	TLB func(s *sim.System) (pred.TLBPredictor, error)
	LLC func(s *sim.System) (pred.LLCPredictor, error)
	// Prefetch constructs an optional TLB prefetcher (extension
	// experiments).
	Prefetch func(s *sim.System) (pred.TLBPrefetcher, error)
	// Oracle runs the two-pass record/replay protocol of §VI-A. Its
	// record pass is the plain machine's run, which a grid holding the
	// baseline cell too runs once for both (planGrid).
	Oracle bool
	// Instrument enables the requested instrumentation before
	// measurement.
	Instrument Instrumentation
	// WarmupKey, when non-empty, asserts that every setup carrying the
	// same key builds an identical machine and predictors and differs only
	// in Instrument. Each grid then warms that machine once per workload
	// and hands each such cell its own warm-state fork (sim.System.Fork),
	// instead of re-simulating the shared warmup prefix; a later grid warms
	// its own. Accuracy grading is enabled only after warmup, so the
	// shared warm state is bit-identical for every consumer.
	// Characterization cells keep the key but never fork: their machine
	// tracks entry times from the first access, which a master built
	// without them cannot supply (warmShareable).
	WarmupKey string
}

// Instrumentation selects measurement machinery.
type Instrumentation struct {
	// Accuracy enables the §VI-C mirror-structure grading.
	Accuracy bool
	// Characterize enables the §IV samplers and Table III correlation.
	Characterize bool
}

// Runner executes setups against workloads, memoizing results so that
// experiments sharing a configuration (e.g. the baseline) simulate once.
//
// The runner is safe for concurrent use: uncached simulations are sharded
// across a bounded worker pool (SetJobs; default runtime.GOMAXPROCS), the
// memo is single-flight per (workload, setup) key so a shared baseline
// still simulates exactly once no matter how many experiments race for it,
// and every run observes through its own obs.Observer.ForkRun scope so
// traces, interval series and metrics from parallel runs never interleave.
// Every simulation is seeded, so results are byte-identical whatever the
// job count (see TestParallelMatchesSequential).
type Runner struct {
	params Params
	jobs   int
	sem    chan struct{} // worker-pool slots, capacity jobs

	// traceDir, when set (SetTraceDir), switches the trace plane from
	// in-memory materialized buffers to compressed DPBF v2 files in this
	// directory: each workload's stream is recorded once (single-flight,
	// temp+rename) and every worker replays it through its own streaming
	// chunk cursor, so memory stays bounded by chunks-in-flight instead of
	// the full warmup+measure trace.
	traceDir string

	// ctx is the base context Run and RunGrid execute under (SetContext);
	// nil means context.Background(). The explicit-context entry points
	// RunContext/RunGridContext take precedence over it.
	ctx context.Context

	// FailFast makes RunGrid cancel the remaining cells as soon as one
	// cell fails with a real (non-cancellation) error. The default keeps
	// going and aggregates every cell's error, which is what the paper
	// grids want: one broken setup should not hide the other columns.
	FailFast bool

	// results, traces and fps are the runner's single-flight stores
	// (flight): one result per (workload, setup) name pair; one trace per
	// workload, generated once and shared read-only by every setup and
	// worker; and one content fingerprint per workload, computed the first
	// time a cell is keyed (CellKey hashes the stream prefix, so sharing it
	// keeps keying O(1) per cell). What cells share beyond these, a
	// baseline pass or a warmed master, lives in the nodes of their grid's
	// plan (planGrid) and goes with it.
	results flight[sim.Result]
	traces  flight[traceSrc]
	fps     flight[string]

	// plan, when set, makes the runner a planner (PlanGrid): RunGrid
	// records its grid there and Run simulates nothing.
	plan   *gridPlan
	onPlan func(*gridPlan) // when set, sees every plan before it runs (tests)

	// recordPasses counts the oracle cells' record passes, sharedPasses
	// those whose Result a baseline cell took (RecordPasses).
	sharedPasses, recordPasses atomic.Int64
	// warmForked and warmCold count warm-path consumers: measured on a fork
	// of the shared master, or sent to the cold path because Fork refused
	// it (WarmForks).
	warmForked, warmCold atomic.Int64

	// Memo, when set, layers a persistent result store under the
	// in-process memo: leaders consult it before simulating or offloading a
	// cell, and publish every successful result into it, the Executor's
	// included, so a re-run with the same memo computes only the delta. The
	// runner is the memo's only client. Lookups key by CellKey —
	// content-addressed, so a memo written under different parameters or
	// seeds never matches.
	// Corrupt or unreadable entries read as misses and are recomputed.
	// The memo is best-effort: a failing Put never fails the cell.
	Memo CellMemo
	// Executor, when set, offloads cells to an external scheduler
	// (expserve's coordinator) instead of simulating locally. Cells a
	// worker cannot rebuild by name — setups outside the standard catalog,
	// ad-hoc workloads — take the local path, so grids with ad-hoc setups
	// still complete.
	Executor CellExecutor

	// ProgressStart, when set, is called as each uncached simulation
	// begins; memoized replays report nothing. With jobs > 1 the progress
	// callbacks run concurrently from pool workers.
	ProgressStart func(workload, setup string)
	// ProgressDone, when set, is called as each uncached simulation
	// finishes — on success and on failure alike — with its wall-clock
	// duration and its error (nil on success). Progress displays use the
	// error to mark failed cells instead of leaving them dangling.
	ProgressDone func(workload, setup string, elapsed time.Duration, err error)
	// Observer, when set, observes every simulated system: each run gets
	// an isolated ForkRun scope labeled "workload/setup", joined back into
	// this bundle when the run finishes.
	Observer *obs.Observer
	// Status, when set, receives cell lifecycle for live monitoring:
	// RunGrid queues the whole cross product up front, each memo leader
	// reports start/done (failures included), and memoized replays count
	// as memo hits. Board updates happen once per cell, never on the
	// access path.
	Status *serve.Board
}

// traceSrc is one workload's shared trace: exactly one of buf (in-memory
// materialized buffer) or ct (disk-backed DPBF v2 trace, the SetTraceDir
// mode) is set.
type traceSrc struct {
	buf *trace.Buffer
	ct  *trace.ChunkedTrace
}

// warmMaster is a warmed machine its grid's warm-path cells fork.
type warmMaster struct {
	sys *sim.System
	buf *trace.Buffer // shared trace, with pos = the post-warmup cursor
	pos uint64
}

// NewRunner creates a runner with the given parameters and a worker pool
// sized to runtime.GOMAXPROCS.
func NewRunner(p Params) *Runner {
	r := &Runner{params: p}
	r.SetJobs(runtime.GOMAXPROCS(0))
	return r
}

// SetJobs bounds the number of simulations in flight (1 = sequential).
// Values below 1 are clamped to 1. Call before submitting work; resizing
// does not affect simulations already holding a pool slot.
func (r *Runner) SetJobs(n int) {
	if n < 1 {
		n = 1
	}
	r.jobs = n
	r.sem = make(chan struct{}, n)
}

// Jobs returns the worker-pool bound.
func (r *Runner) Jobs() int { return r.jobs }

// SetContext sets the base context Run and RunGrid execute under, so the
// experiment functions (which call Run through the unchanged two-argument
// signature) inherit cancellation without any signature change. nil
// restores context.Background().
func (r *Runner) SetContext(ctx context.Context) { r.ctx = ctx }

// SetTraceDir switches the runner to streamed traces: workloads are
// recorded once as compressed DPBF v2 files under dir (reusing a file from
// a previous run when its name matches the workload, seed and length) and
// replayed from disk through per-worker chunk cursors. Results are
// byte-identical to the default in-memory mode at any job count — both
// feed the same columnar chunks to sim.System.RunContext — but warm
// sharing is off, since a fork resumes mid-buffer: every cell warms its
// own machine and no warm master is planned. The directory must
// exist; trace files opened from it stay open for the runner's lifetime.
// Call before submitting work.
func (r *Runner) SetTraceDir(dir string) { r.traceDir = dir }

// baseCtx returns the runner's base context.
func (r *Runner) baseCtx() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error. Such errors describe the caller's abort, not the cell,
// so the runner neither memoizes them nor aggregates them as failures.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Params returns the runner's parameters.
func (r *Runner) Params() Params { return r.params }

// RecordPasses reports the oracle cells' record passes so far: shared
// counts those whose Result also served the workload's baseline cell in
// their grid, alone those that served the oracle only (an oracle-only grid,
// a baseline already memoized or led by another grid, a persistent-memo,
// distributed or observed run, a lone Run).
func (r *Runner) RecordPasses() (shared, alone int64) {
	shared = r.sharedPasses.Load() // first: a pass is counted before it is shared
	return shared, r.recordPasses.Load() - shared
}

// WarmForks reports how the warm-state path served its consumers so far:
// forked counts cells measured on a fork of their grid's warmed master,
// cold counts cells that fell back to warming their own machine because
// Fork refused the master.
func (r *Runner) WarmForks() (forked, cold int64) {
	return r.warmForked.Load(), r.warmCold.Load()
}

// Run simulates one workload under one setup (memoized, single-flight).
// Concurrent callers asking for the same key block until the leader's
// simulation finishes and then share its result; errors are memoized too,
// except cancellation errors, whose memo entries are evicted so a later
// Run on the same runner re-simulates instead of replaying the abort.
func (r *Runner) Run(w trace.Workload, setup Setup) (sim.Result, error) {
	return r.RunContext(r.baseCtx(), w, setup)
}

// RunContext is Run under an explicit context. Cancellation unblocks both
// leaders (between simulation strides) and waiters (immediately); a waiter
// canceled while the leader keeps running does not disturb the memo.
//
// A lone cell is a plan of one: a warm-path cell not yet memoized warms its
// own master, forks it once and releases it.
func (r *Runner) RunContext(ctx context.Context, w trace.Workload, setup Setup) (sim.Result, error) {
	if r.plan != nil {
		return sim.Result{}, ErrPlanned
	}
	p := r.planGrid([]trace.Workload{w}, []Setup{setup})
	return r.run(ctx, w, setup, p.edges[w.Name+"/"+setup.Name])
}

// run runs one cell of a plan, whose edge into a shared node is e (nil if
// it has none), and drops e when it returns, on every path.
func (r *Runner) run(ctx context.Context, w trace.Workload, setup Setup, e *edge) (sim.Result, error) {
	defer e.drop()
	res, shared, err := r.results.do(ctx, w.Name+"/"+setup.Name, func() (sim.Result, error) {
		return r.lead(ctx, w, setup, e)
	})
	if shared {
		if r.Status != nil && err == nil {
			r.Status.MemoHit(w.Name, setup.Name)
		}
		// The leader's errors are already wrapped; only this waiter's own
		// abort comes back bare.
		if err != nil && err == ctx.Err() {
			err = fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, err)
		}
	}
	return res, err
}

// lead executes one uncached cell as the memo leader. With a persistent
// memo configured it first tries that: a hit returns without touching the
// worker pool. A cell a worker can rebuild by name goes to the external
// executor, if one is set, inside a cell span, so -v and the status board
// see it; any other cell takes the local path (runLocal). A result from
// either path is published into the persistent memo.
func (r *Runner) lead(ctx context.Context, w trace.Workload, setup Setup, e *edge) (res sim.Result, err error) {
	var key string
	if r.Memo != nil || r.Executor != nil {
		// A keying failure (the workload's generator errors while being
		// fingerprinted) is not fatal here: the local path below replays
		// the same generator and reports the error as the cell's outcome.
		key, _ = r.cellKey(ctx, w, setup)
	}
	if key != "" && r.Memo != nil {
		if res, ok, err := r.Memo.Get(key); err == nil && ok {
			if r.Status != nil {
				r.Status.MemoHit(w.Name, setup.Name)
			}
			return res, nil
		}
	}
	if key != "" && r.Executor != nil && remote(w, setup) {
		done := r.cellSpan(w.Name, setup.Name)
		if res, err = r.Executor(ctx, key, w, setup); err != nil {
			err = fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, err)
		}
		done(err)
	} else {
		res, err = r.runLocal(ctx, w, setup, e)
	}
	if err == nil && key != "" && r.Memo != nil {
		// Best-effort: the result is correct whether or not it persists,
		// and a full disk must not fail a finished simulation.
		_ = r.Memo.Put(key, CellMeta{Workload: w.Name, Setup: setup.Name, Params: r.params}, res)
	}
	return res, err
}

// runLocal simulates a cell in this process: wait for a node another cell
// computes, acquire a pool slot (abandoning either wait if ctx is canceled
// first), and run the cell with panic containment inside a cell span.
func (r *Runner) runLocal(ctx context.Context, w trace.Workload, setup Setup, e *edge) (sim.Result, error) {
	// A baseline cell waits for its workload's pass before taking a pool
	// slot, so waiting holds no slot and its progress span covers only its
	// own work.
	if e != nil && e.pass && !e.computes {
		select {
		case <-e.done:
		case <-ctx.Done():
			return sim.Result{}, fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, ctx.Err())
		}
	}
	select {
	case r.sem <- struct{}{}: // acquire a pool slot
	case <-ctx.Done():
		return sim.Result{}, fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, ctx.Err())
	}
	defer func() { <-r.sem }() // release the slot before waking waiters
	done := r.cellSpan(w.Name, setup.Name)
	res, err := r.runUncached(ctx, w, setup, e)
	if err != nil {
		err = fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, err)
	}
	done(err)
	return res, err
}

// cellSpan reports one computed cell's start to ProgressStart and the
// status board, and returns the func that reports its end with the cell's
// wall-clock duration and error. Local cells open the span once they hold
// a pool slot, so a span covers only the cell's own work.
func (r *Runner) cellSpan(workload, cell string) (done func(error)) {
	if r.ProgressStart != nil {
		r.ProgressStart(workload, cell)
	}
	if r.Status != nil {
		r.Status.CellStart(workload, cell)
	}
	start := time.Now()
	return func(err error) {
		elapsed := time.Since(start)
		if r.ProgressDone != nil {
			r.ProgressDone(workload, cell, elapsed, err)
		}
		if r.Status != nil {
			r.Status.CellDone(workload, cell, elapsed, err)
		}
	}
}

// remote reports whether a worker can rebuild the cell by name, so the
// Executor may run it; cells of ad-hoc setups or workloads run locally.
func remote(w trace.Workload, setup Setup) bool {
	_, known := ResolveSetup(setup.Name)
	_, err := trace.ByName(w.Name)
	return known && err == nil
}

// RunGrid simulates the full workload × setup cross product, sharding the
// uncached runs across the worker pool. Unlike a first-error-wins scheme,
// every failing cell's error is collected and returned joined (sorted for
// determinism), so one broken setup cannot hide another; with FailFast set
// the first real failure cancels the cells still queued. All results land
// in the memo, so callers aggregate afterwards by replaying Run in
// whatever fixed order the report needs — aggregation order is completely
// decoupled from completion order.
func (r *Runner) RunGrid(workloads []trace.Workload, setups []Setup) error {
	return r.RunGridContext(r.baseCtx(), workloads, setups)
}

// RunGridContext is RunGrid under an explicit context. Canceling ctx stops
// the grid promptly: running cells stop at their next stride check, queued
// cells never start, and the returned error wraps ctx's error with the
// number of unfinished cells.
//
// Before launching anything the grid is planned (planGrid): its baseline
// passes and warmed masters, each with its consumers counted, so a master
// is released as soon as its last consumer has forked it. Every cell drops
// its edge on return, so nothing the grid shared outlives it.
func (r *Runner) RunGridContext(ctx context.Context, workloads []trace.Workload, setups []Setup) error {
	if r.plan != nil {
		r.plan.add(workloads, setups)
		return ErrPlanned
	}
	p := r.planGrid(workloads, setups)
	gctx := ctx
	var cancel context.CancelFunc
	if r.FailFast {
		gctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	if r.Status != nil {
		// Announce the full cross product before launching anything, so
		// /status shows pending cells instead of a grid that grows as
		// leaders start.
		for _, w := range p.workloads {
			for _, su := range p.setups {
				r.Status.CellQueued(w.Name, su.Name)
			}
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	canceled := 0
	for _, w := range p.workloads {
		for _, su := range p.setups {
			wg.Add(1)
			go func(w trace.Workload, su Setup) {
				defer wg.Done()
				_, err := r.run(gctx, w, su, p.edges[w.Name+"/"+su.Name])
				if err == nil {
					return
				}
				mu.Lock()
				if isCtxErr(err) {
					canceled++
				} else {
					errs = append(errs, err)
					if cancel != nil {
						cancel()
					}
				}
				mu.Unlock()
			}(w, su)
		}
	}
	wg.Wait()
	if len(errs) > 0 {
		// Completion order is nondeterministic; sort so the aggregate
		// error reads identically run to run.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		if canceled > 0 {
			errs = append(errs, fmt.Errorf("exp: fail-fast canceled %d queued cells", canceled))
		}
		return errors.Join(errs...)
	}
	if canceled > 0 {
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		return fmt.Errorf("exp: grid canceled (%d cells unfinished): %w", canceled, cause)
	}
	return nil
}

// generator returns a fresh start-positioned cursor over the workload's
// trace. The trace itself is built once per workload (single-flight,
// covering warmup+measure) and shared read-only afterwards; callers each
// get an independent cursor. In the default mode that is a BufferReader
// over an in-memory materialized buffer; with SetTraceDir it is a
// StreamReader over a compressed DPBF v2 file on disk. Either way the
// cursor implements trace.ChunkReader, so every run takes the batched
// columnar simulation path.
func (r *Runner) generator(ctx context.Context, w trace.Workload) (trace.Generator, error) {
	src, _, err := r.traces.do(ctx, w.Name, func() (src traceSrc, err error) {
		if r.traceDir != "" {
			src.ct, err = r.streamWorkload(ctx, w)
		} else {
			src.buf, err = trace.MaterializeContext(ctx, w.New(r.params.Seed), r.params.Warmup+r.params.Measure)
		}
		return src, err
	})
	switch {
	case err != nil:
		return nil, err
	case src.ct != nil:
		return src.ct.NewReader(), nil
	}
	return src.buf.Reader(), nil
}

// streamWorkload records the workload's warmup+measure stream as a
// compressed DPBF v2 file under traceDir (or reuses an existing file whose
// name encodes the same workload, seed and length) and opens it for
// chunk-streamed random access. The write goes to a temp file renamed into
// place, so a crashed or canceled recording never leaves a truncated file
// that a later run would trust; the opened file handle stays live for the
// runner's lifetime, shared by every StreamReader.
func (r *Runner) streamWorkload(ctx context.Context, w trace.Workload) (*trace.ChunkedTrace, error) {
	n := r.params.Warmup + r.params.Measure
	path := filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d-n%d.dpbf", w.Name, r.params.Seed, n))
	f, err := os.Open(path)
	if err != nil {
		tmp, terr := os.CreateTemp(r.traceDir, w.Name+".*.tmp")
		if terr != nil {
			return nil, fmt.Errorf("exp: recording %s: %w", w.Name, terr)
		}
		werr := trace.RecordV2Context(ctx, tmp, w.New(r.params.Seed), n)
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp.Name(), path)
		}
		if werr != nil {
			os.Remove(tmp.Name())
			return nil, fmt.Errorf("exp: recording %s: %w", w.Name, werr)
		}
		if f, err = os.Open(path); err != nil {
			return nil, fmt.Errorf("exp: recording %s: %w", w.Name, err)
		}
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: opening cached trace %s: %w", path, err)
	}
	ct, err := trace.OpenChunked(f, info.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: opening cached trace %s: %w", path, err)
	}
	if ct.Len() != n || ct.Name() != w.Name {
		f.Close()
		return nil, fmt.Errorf("exp: cached trace %s holds %d accesses of %q, want %d of %q; delete it to re-record",
			path, ct.Len(), ct.Name(), n, w.Name)
	}
	return ct, nil
}

// BuildSystem constructs the one-core machine and its
// predictors/prefetcher for a non-oracle setup, without running anything:
// BuildMachine on a 1×1 topology. Every cell builds its machine through it
// (the oracle's two passes substitute their RecorderTLB and OracleTLB as
// the setup's TLB constructor).
func (r *Runner) BuildSystem(setup Setup) (*sim.System, error) {
	cfgFn := setup.Config
	if cfgFn == nil {
		cfgFn = sim.DefaultConfig
	}
	cfg := cfgFn()
	cfg.Seed = r.params.Seed
	return BuildMachine(setup, sim.MultiConfig{Machine: cfg, Cores: 1, Tenants: 1})
}

// BuildMachine constructs the machine mc describes (setup.Config is not
// consulted) and installs setup's predictors, shared by every core, and
// its prefetcher, for a non-oracle setup. A characterization setup's
// machine tracks entry times from its first access, so its samplers see
// the warmup's fills too. Multi-core cells and cmd/deadsim's checkpoint
// path, which rebuilds the exact machine a checkpoint was taken from,
// build through it directly.
func BuildMachine(setup Setup, mc sim.MultiConfig) (*sim.System, error) {
	if setup.Oracle {
		return nil, fmt.Errorf("exp: the oracle's two-pass protocol has no standalone system")
	}
	s, err := sim.NewMulti(mc)
	if err != nil {
		return nil, err
	}
	if setup.Instrument.Characterize {
		if err := s.TrackEntryTimes(); err != nil {
			return nil, err
		}
	}
	if setup.TLB != nil {
		p, err := setup.TLB(s)
		if err != nil {
			return nil, err
		}
		s.SetTLBPredictor(p)
	}
	if setup.LLC != nil {
		p, err := setup.LLC(s)
		if err != nil {
			return nil, err
		}
		s.SetLLCPredictor(p)
	}
	if setup.Prefetch != nil {
		p, err := setup.Prefetch(s)
		if err != nil {
			return nil, err
		}
		s.SetTLBPrefetcher(p)
	}
	return s, nil
}

// measure runs the post-warmup half of a cell on a warmed machine: enable
// the setup's instrumentation, mark the measurement region, feed p.Measure
// accesses from the tenants' generators and collect the result.
func measure(ctx context.Context, p Params, s *sim.System, gens []trace.Generator, setup Setup) (sim.Result, error) {
	if setup.Instrument.Accuracy {
		if err := s.EnableAccuracyTracking(); err != nil {
			return sim.Result{}, err
		}
	}
	if setup.Instrument.Characterize {
		if err := s.EnableCharacterization(p.SampleEvery); err != nil {
			return sim.Result{}, err
		}
	}
	s.StartMeasurement()
	if err := s.RunTenants(ctx, gens, p.Measure); err != nil {
		return sim.Result{}, err
	}
	s.Finish()
	return s.Result(), nil
}

// simulate runs a freshly built machine over the workload's warmup and
// measured accesses.
func (r *Runner) simulate(ctx context.Context, s *sim.System, w trace.Workload, setup Setup) (sim.Result, error) {
	g, err := r.generator(ctx, w)
	if err != nil {
		return sim.Result{}, err
	}
	if err := s.RunContext(ctx, g, r.params.Warmup); err != nil {
		return sim.Result{}, err
	}
	return measure(ctx, r.params, s, []trace.Generator{g}, setup)
}

// warmShareable reports whether a setup can take the warm-state fork path:
// it must declare a WarmupKey, nothing may need to observe the warmup
// prefix itself (observers attach before warmup; the oracle's record pass
// and prefetchers manage their own state; characterization's samplers
// read entry times its machine tracks from the first access), and the
// trace must live in memory — a warmed master's forks resume from a
// shared Buffer position, which a disk-streamed trace has no equivalent
// of.
func (r *Runner) warmShareable(setup Setup) bool {
	return setup.WarmupKey != "" && r.Observer == nil && r.traceDir == "" &&
		!setup.Oracle && setup.Prefetch == nil && !setup.Instrument.Characterize
}

// runShared executes a cell on a fork of its grid's warmed master (e's
// node). The first consumer to reach a pool slot builds and warms it in its
// own span; the others wait for it in theirs, as they queued right behind
// it. Each consumer drops its edge once it has forked, so the last fork
// releases the machine. ok=false sends the caller to the cold path: Fork
// refused (counted in WarmForks), or the master failed for another cell.
func (r *Runner) runShared(ctx context.Context, w trace.Workload, setup Setup, e *edge) (res sim.Result, ok bool, err error) {
	e.computes = e.claimed.CompareAndSwap(false, true)
	if !e.computes {
		select {
		case <-e.done:
		case <-ctx.Done():
			return sim.Result{}, true, ctx.Err()
		}
	} else {
		e.publish(func() (any, error) {
			sys, err := r.BuildSystem(setup)
			if err != nil {
				return nil, err
			}
			rd, err := r.generator(ctx, w)
			if err != nil {
				return nil, err
			}
			if err := sys.RunContext(ctx, rd, r.params.Warmup); err != nil {
				return nil, err
			}
			// warmShareable guarantees the in-memory trace mode, so the
			// cursor is a BufferReader whose position the forks resume from.
			br := rd.(*trace.BufferReader)
			return warmMaster{sys: sys, buf: br.Buffer(), pos: br.Pos()}, nil
		}())
	}
	if e.err != nil {
		// A master that failed to warm for another cell sends this one to
		// the cold path.
		return sim.Result{}, e.computes, e.err
	}

	e.mu.Lock()
	m := e.val.(warmMaster)
	fork, ferr := m.sys.Fork()
	e.mu.Unlock()
	src := m.buf.ReaderAt(m.pos)
	e.drop()
	if ferr != nil {
		r.warmCold.Add(1)
		return sim.Result{}, false, nil
	}
	r.warmForked.Add(1)
	res, err = measure(ctx, r.params, fork, []trace.Generator{src}, setup)
	return res, true, err
}

// runUncached simulates one cell. A cell with an edge consumes its node:
// the oracle runs its workload's pass, the baseline takes the pass's
// Result, a warm-path cell measures on a fork of its master; a consumer
// whose node failed runs on its own. A panicking Setup constructor or
// predictor fails only its own cell, with a stack.
func (r *Runner) runUncached(ctx context.Context, w trace.Workload, setup Setup, e *edge) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	switch {
	case e == nil || setup.Oracle:
	case !e.pass:
		if res, ok, err := r.runShared(ctx, w, setup, e); ok {
			return res, err
		}
	case e.err == nil:
		r.sharedPasses.Add(1)
		return e.val.(sim.Result), nil
	}

	if setup.Oracle {
		// Recording pass: the baseline machine over the same trace. A
		// paired oracle publishes its Result, which is the baseline cell's.
		record, res, err := r.baselinePass(ctx, w, setup.Config)
		if err == nil {
			r.recordPasses.Add(1)
		}
		if e != nil {
			e.publish(res, err)
		}
		if err != nil {
			return sim.Result{}, err
		}
		// The replay pass is the setup's machine with the oracle, fed the
		// record, as its TLB predictor.
		setup.Oracle = false
		setup.TLB = func(*sim.System) (pred.TLBPredictor, error) { return pred.NewOracleTLB(record), nil }
	}
	s, err := r.BuildSystem(setup)
	if err != nil {
		return sim.Result{}, err
	}
	if r.Observer != nil {
		// Attach before warmup: learning curves need the predictors'
		// cold-start behaviour, so interval samples and trace events
		// cover the whole run (Result stays measurement-scoped). Each run
		// observes through its own forked scope so parallel runs cannot
		// interleave; join publishes into the shared bundle even when the
		// run errors, flushing whatever was traced.
		child, join := r.Observer.ForkRun(w.Name, setup.Name)
		defer join()
		s.AttachObserver(child)
	}
	return r.simulate(ctx, s, w, setup)
}

// baselinePass runs the predictor-less machine config describes (nil means
// Table I) over the workload's warmup and measured accesses, with a
// RecorderTLB capturing every LLT fill's ground-truth DOA outcome for the
// oracle. The recorder never bypasses and sim.Result reports nothing about
// predictors, so the Result is the plain machine's cell bit for bit.
func (r *Runner) baselinePass(ctx context.Context, w trace.Workload, config func() sim.Config) (*pred.DOARecord, sim.Result, error) {
	rec := pred.NewDOARecord()
	s, err := r.BuildSystem(Setup{Config: config, TLB: func(*sim.System) (pred.TLBPredictor, error) {
		return pred.NewRecorderTLB(rec), nil
	}})
	if err != nil {
		return nil, sim.Result{}, err
	}
	res, err := r.simulate(ctx, s, w, Setup{})
	if err != nil {
		return nil, sim.Result{}, err
	}
	return rec, res, nil
}

// --- Standard setups -----------------------------------------------------

// Baseline is the unmodified Table I machine. It shares warm state with the
// characterization cell (same machine, extra sampling after warmup).
func Baseline() Setup { return Setup{Name: "baseline", WarmupKey: "baseline"} }

// DPPredSetup runs dpPred on the LLT. Shares warm state with its accuracy
// variant.
func DPPredSetup() Setup { return mustSetup("dpPred") }

// DPPredCBPredSetup runs the paper's full proposal: dpPred + cbPred
// (resolving cbPred through the registry auto-pairs its dpPred driver).
// Shares warm state with its accuracy variant.
func DPPredCBPredSetup() Setup { return mustSetup("cbPred") }

// AIPTLBSetup applies AIP to the LLT (§VI-A).
func AIPTLBSetup() Setup { return mustSetup("AIP-TLB") }

// SHiPTLBSetup applies SHiP to the LLT (§VI-A). Shares warm state with its
// accuracy variant.
func SHiPTLBSetup() Setup { return mustSetup("SHiP-TLB") }

// AIPLLCSetup applies AIP to the LLC (§VI-B).
func AIPLLCSetup() Setup { return mustSetup("AIP-LLC") }

// SHiPLLCSetup applies SHiP to the LLC (§VI-B). Shares warm state with its
// accuracy variant.
func SHiPLLCSetup() Setup { return mustSetup("SHiP-LLC") }

// bothSetup fuses a TLB-side and an LLC-side registry setup into one
// combined machine.
func bothSetup(name, tlbName, llcName string) Setup {
	t, l := mustSetup(tlbName), mustSetup(llcName)
	return Setup{Name: name, TLB: t.TLB, LLC: l.LLC}
}

// AIPBothSetup applies AIP to both the LLT and the LLC.
func AIPBothSetup() Setup { return bothSetup("AIP-TLB+LLC", "AIP-TLB", "AIP-LLC") }

// SHiPBothSetup applies SHiP to both the LLT and the LLC.
func SHiPBothSetup() Setup { return bothSetup("SHiP-TLB+LLC", "SHiP-TLB", "SHiP-LLC") }

// IsoStorageSetup grows the LLT by roughly dpPred's storage overhead
// (≈11%, §VI-A): one extra way, 1024 → 1152 entries.
func IsoStorageSetup() Setup {
	return Setup{
		Name: "iso-storage",
		Config: func() sim.Config {
			cfg := sim.DefaultConfig()
			cfg.LLT.Entries = 1152
			cfg.LLT.Ways = 9
			return cfg
		},
	}
}

// OracleSetup is the two-pass approximate oracle of §VI-A.
func OracleSetup() Setup {
	return Setup{Name: "oracle", Oracle: true}
}

// --- Predictor constructors ----------------------------------------------

// newDPPred and newCBPred resolve the paper's predictors through the
// registry; sensitivity and extension experiments reuse them on modified
// machine configurations (experiments that mutate the predictor configs
// themselves construct through internal/core directly).
func newDPPred(s *sim.System) (pred.TLBPredictor, error) {
	reg, err := pred.Lookup("dpPred")
	if err != nil {
		return nil, err
	}
	return reg.NewTLB(s.LLT().Inner())
}

func newCBPred(s *sim.System) (pred.LLCPredictor, error) {
	reg, err := pred.Lookup("cbPred")
	if err != nil {
		return nil, err
	}
	return reg.NewLLC(s.LLC())
}
