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
	// record pass is the plain machine's run, which RunGrid shares with
	// the grid's baseline cell (pairGrid).
	Oracle bool
	// Instrument enables the requested instrumentation before
	// measurement.
	Instrument Instrumentation
	// WarmupKey, when non-empty, asserts that every setup carrying the
	// same key builds an identical machine and predictors and differs only
	// in Instrument. The runner then warms that machine once per workload
	// and hands each such setup its own warm-state fork (sim.System.Fork),
	// instead of re-simulating the shared warmup prefix. Instrumentation
	// is enabled only after warmup, so the shared warm state is
	// bit-identical for every consumer.
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

	// results, traces, warm and fps are the runner's single-flight stores
	// (flight): one result per (workload, setup) name pair; one trace per
	// workload, generated once and shared read-only by every setup and
	// worker; one warmed master system per (workload, WarmupKey), forked per
	// consuming cell and released once its last counted consumer has
	// consumed (countWarm); and one content fingerprint per workload,
	// computed the first time a cell is keyed (CellKey hashes the stream
	// prefix, so sharing it keeps keying O(1) per cell).
	results flight[sim.Result]
	traces  flight[traceSrc]
	warm    flight[*warmMaster]
	fps     flight[string]

	// mu guards pairs, claims and pending. pairs holds one shared baseline
	// pass per workload whose grid pairs its baseline cell with an oracle
	// cell (pairGrid). claims counts, per cell (workload/setup), the
	// warm-path runs that grids counted and no consumer has served yet;
	// pending sums them per warm master (workload/WarmupKey), whose machine
	// the runner drops when its sum reaches zero (countWarm).
	mu      sync.Mutex
	pairs   map[string]*pairEntry
	claims  map[string]int
	pending map[string]int

	// plan, when set, makes the runner a planner (PlanGrid): RunGrid
	// records its grid there and Run simulates nothing.
	plan *gridPlan

	// sharedPasses and alonePasses count the oracle's record passes: run
	// once for a workload's baseline and oracle cells together, or for an
	// oracle cell alone (RecordPasses).
	sharedPasses, alonePasses atomic.Int64
	// warmForked and warmCold count warm-path consumers: measured on a fork
	// of the shared master, or sent to the cold path because the master was
	// already released or Fork refused it (WarmForks).
	warmForked, warmCold atomic.Int64

	// Memo, when set, layers a persistent result store under the
	// in-process memo: leaders consult it before simulating and publish
	// successful results into it, so a re-run with the same memo computes
	// only the delta. Lookups key by CellKey — content-addressed, so a
	// memo written under different parameters or seeds never matches.
	// Corrupt or unreadable entries read as misses and are recomputed.
	// The memo is best-effort: a failing Put never fails the cell.
	Memo CellMemo
	// Executor, when set, offloads cells to an external scheduler
	// (expserve's coordinator) instead of simulating locally. Cells the
	// executor declines — setups outside the standard catalog — fall back
	// to the local path, so grids with ad-hoc setups still complete.
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

// warmMaster is one warmed machine of the warm-state store: consumers fork
// it.
type warmMaster struct {
	mu  sync.Mutex
	sys *sim.System   // warmed master; nil once its counted consumers are served
	buf *trace.Buffer // shared trace, with pos = the post-warmup cursor
	pos uint64
}

// pairEntry is one workload's shared baseline pass. The oracle's record
// pass (§VI-A) runs the plain Table I machine over the same trace as the
// baseline cell and changes nothing the Result reports, so when a grid
// holds both cells one pass serves both. The first of the two cells to
// claim the entry runs the pass in its own pool slot and progress span; the
// second waits for it outside the pool, then takes its slot and consumes
// the outcome. The second claim removes the entry from Runner.pairs.
type pairEntry struct {
	taken [2]bool // by pairRole; guarded by Runner.mu

	done      chan struct{} // closed once the outcome is published
	published bool          // touched only by the leader's goroutine
	rec       *pred.DOARecord
	res       sim.Result
	err       error
}

// errPairAbandoned is what a pass leader publishes when it returns without
// running the pass (canceled while queued, or a panic).
var errPairAbandoned = errors.New("exp: shared baseline pass abandoned")

// NewRunner creates a runner with the given parameters and a worker pool
// sized to runtime.GOMAXPROCS.
func NewRunner(p Params) *Runner {
	r := &Runner{params: p, pairs: make(map[string]*pairEntry),
		claims: make(map[string]int), pending: make(map[string]int)}
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
// own machine and no warm master is counted or held. The directory must
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

// RecordPasses reports how the oracle's record passes ran so far: shared
// counts baseline passes that served both a workload's baseline cell and
// its oracle cell, alone counts record passes run for an oracle cell only
// (an oracle-only grid, a baseline already memoized, a persistent-memo,
// distributed or observed run, a lone Run).
func (r *Runner) RecordPasses() (shared, alone int64) {
	return r.sharedPasses.Load(), r.alonePasses.Load()
}

// WarmForks reports how the warm-state path served its consumers so far:
// forked counts cells measured on a fork of a shared warmed master, cold
// counts cells that fell back to warming their own machine because the
// master was already released (its counted consumers were all served
// before this cell arrived) or Fork refused the machine.
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
// A cell outside any grid counts as a grid of one: a warm-path cell not yet
// memoized warms its own master, forks it once and releases it.
func (r *Runner) RunContext(ctx context.Context, w trace.Workload, setup Setup) (sim.Result, error) {
	if r.plan != nil {
		return sim.Result{}, ErrPlanned
	}
	retire := r.countWarm([]trace.Workload{w}, []Setup{setup})
	defer retire()
	return r.run(ctx, w, setup)
}

// run is RunContext without the warm count: grids count their cells once
// before launching them.
func (r *Runner) run(ctx context.Context, w trace.Workload, setup Setup) (sim.Result, error) {
	res, shared, err := r.results.do(ctx, w.Name+"/"+setup.Name, func() (sim.Result, error) {
		return r.lead(ctx, w, setup)
	})
	if shared {
		if r.Status != nil {
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
// memo or an external executor configured it first tries those — a memo
// hit returns without touching the worker pool, a handled executor cell
// runs remotely (progress is still reported so -v and the status board see
// it) — and otherwise it takes the local path: acquire a pool slot
// (abandoning the wait if ctx is canceled first), report progress, run the
// cell with panic containment, report completion, and publish the result
// into the persistent memo.
func (r *Runner) lead(ctx context.Context, w trace.Workload, setup Setup) (sim.Result, error) {
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
			// Retire the cell's warm claim now, so a master whose other
			// consumers simulate need not wait for the grid to end.
			r.retireClaim(w.Name+"/"+setup.Name, w.Name+"/"+setup.WarmupKey)
			return res, nil
		}
	}
	if key != "" && r.Executor != nil {
		if res, handled, err := r.execRemote(ctx, key, w, setup); handled {
			return res, err
		}
	}

	// A paired cell that does not run the shared pass waits for it before
	// taking a pool slot, so waiting holds no slot and its progress span
	// covers only its own work.
	pair, leadPass := r.claimPair(w, setup)
	if pair != nil {
		if leadPass {
			defer r.publishPair(w, pair, nil, sim.Result{}, errPairAbandoned)
		} else {
			select {
			case <-pair.done:
			case <-ctx.Done():
				return sim.Result{}, fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, ctx.Err())
			}
		}
	}

	select {
	case r.sem <- struct{}{}: // acquire a pool slot
	case <-ctx.Done():
		return sim.Result{}, fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, ctx.Err())
	}
	done := r.cellSpan(w.Name, setup.Name)
	res, err := r.runCell(ctx, w, setup, pair, leadPass)
	if err != nil {
		err = fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, err)
	}
	done(err)
	<-r.sem // release the slot before waking waiters
	if err == nil && key != "" && r.Memo != nil {
		// Best-effort: the result is correct whether or not it persists,
		// and a full disk must not fail a finished simulation.
		_ = r.Memo.Put(key, CellMeta{Workload: w.Name, Setup: setup.Name, Params: r.params}, res)
	}
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

// execRemote runs one cell through the external executor inside a cell span,
// so live displays see remote cells. handled=false (an unresolvable setup)
// reports no end and sends the caller to the local path, whose start the
// board treats as a restart of the same cell.
func (r *Runner) execRemote(ctx context.Context, key string, w trace.Workload, setup Setup) (sim.Result, bool, error) {
	done := r.cellSpan(w.Name, setup.Name)
	res, handled, err := r.Executor(ctx, key, w, setup)
	if !handled {
		return sim.Result{}, false, nil
	}
	if err != nil {
		err = fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, err)
	}
	done(err)
	return res, true, err
}

// runCell wraps runUncached with panic containment: a panicking Setup
// constructor or predictor fails its own cell with a stack-carrying error
// instead of tearing down the whole grid's worker pool.
func (r *Runner) runCell(ctx context.Context, w trace.Workload, setup Setup, pair *pairEntry, leadPass bool) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return r.runUncached(ctx, w, setup, pair, leadPass)
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
// Before launching anything the grid counts its warm-path cells per warm
// master (countWarm), so each master is released as soon as its last
// consumer has forked it; whatever the grid counted and never served (a
// failed or canceled cell) is retired when it returns.
func (r *Runner) RunGridContext(ctx context.Context, workloads []trace.Workload, setups []Setup) error {
	if r.plan != nil {
		r.plan.add(workloads, setups)
		return ErrPlanned
	}
	gctx := ctx
	var cancel context.CancelFunc
	if r.FailFast {
		gctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	r.pairGrid(workloads, setups)
	retire := r.countWarm(workloads, setups)
	defer retire()
	if r.Status != nil {
		// Announce the full cross product before launching anything, so
		// /status shows pending cells instead of a grid that grows as
		// leaders start.
		for _, w := range workloads {
			for _, su := range setups {
				r.Status.CellQueued(w.Name, su.Name)
			}
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	canceled := 0
	for _, w := range workloads {
		for _, su := range setups {
			wg.Add(1)
			go func(w trace.Workload, su Setup) {
				defer wg.Done()
				_, err := r.run(gctx, w, su)
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

// pairRole returns the side of a shared baseline pass setup can take: 0
// for the plain Table I machine, 1 for an oracle whose record pass runs
// that machine, or -1.
func pairRole(su Setup) int {
	switch {
	case su.Config != nil:
		return -1
	case su.Oracle:
		return 1
	case su.TLB == nil && su.LLC == nil && su.Prefetch == nil && su.Instrument == Instrumentation{}:
		return 0
	}
	return -1
}

// pairGrid gives every workload of the grid a shared baseline pass when the
// setups hold both a plain baseline and a default-config oracle and neither
// cell is memoized yet. Runs with a persistent memo or an external executor
// keep separate passes, since either cell may come from elsewhere, and so
// do observed runs, whose baseline observer scope must see the plain
// machine.
func (r *Runner) pairGrid(workloads []trace.Workload, setups []Setup) {
	if r.Observer != nil || r.Executor != nil || r.Memo != nil {
		return
	}
	var names [2]string
	for _, su := range setups {
		if role := pairRole(su); role >= 0 && names[role] == "" {
			names[role] = su.Name
		}
	}
	if names[0] == "" || names[1] == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range workloads {
		if r.pairs[w.Name] == nil && !r.results.has(w.Name+"/"+names[0]) && !r.results.has(w.Name+"/"+names[1]) {
			r.pairs[w.Name] = &pairEntry{done: make(chan struct{})}
		}
	}
}

// claimPair takes setup's side of w's shared pass and reports whether the
// caller runs the pass (the first claimant) or consumes it. It returns nil,
// and the cell runs on its own, when there is no entry for w, setup takes
// no side, or its side was already taken (a re-run after cancellation).
func (r *Runner) claimPair(w trace.Workload, setup Setup) (e *pairEntry, leadPass bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, role := r.pairs[w.Name], pairRole(setup)
	if e == nil || role < 0 || e.taken[role] {
		return nil, false
	}
	e.taken[role] = true
	if e.taken[1-role] {
		delete(r.pairs, w.Name)
		return e, false
	}
	return e, true
}

// publishPair publishes the pass outcome and wakes the consumer; only the
// leader calls it, and only its first call counts. A failed pass leaves
// Runner.pairs, so a cell arriving later runs on its own and a later grid
// pairs afresh.
func (r *Runner) publishPair(w trace.Workload, e *pairEntry, rec *pred.DOARecord, res sim.Result, err error) {
	if e.published {
		return
	}
	e.published = true
	e.rec, e.res, e.err = rec, res, err
	if err != nil {
		r.mu.Lock()
		if r.pairs[w.Name] == e {
			delete(r.pairs, w.Name)
		}
		r.mu.Unlock()
	}
	close(e.done)
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
// its prefetcher, for a non-oracle setup. Multi-core cells and
// cmd/deadsim's checkpoint path, which rebuilds the exact machine a
// checkpoint was taken from, build through it directly.
func BuildMachine(setup Setup, mc sim.MultiConfig) (*sim.System, error) {
	if setup.Oracle {
		return nil, fmt.Errorf("exp: the oracle's two-pass protocol has no standalone system")
	}
	s, err := sim.NewMulti(mc)
	if err != nil {
		return nil, err
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
		s.EnableCharacterization(p.SampleEvery)
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
// and prefetchers manage their own state), and the trace must live in
// memory — the warm store resumes consumers from a shared Buffer position,
// which a disk-streamed trace has no equivalent of.
func (r *Runner) warmShareable(setup Setup) bool {
	return setup.WarmupKey != "" && r.Observer == nil && r.traceDir == "" &&
		!setup.Oracle && setup.Prefetch == nil
}

// countWarm counts the cells of a grid that will take the warm path — a
// warm-shareable setup whose cell is not memoized (or in flight) and is not
// a baseline cell about to share an oracle's record pass — as claims on
// their masters, and returns the func that retires whichever of those
// claims no consumer served.
func (r *Runner) countWarm(workloads []trace.Workload, setups []Setup) (retire func()) {
	type claim struct{ cell, master string }
	var counted []claim
	r.mu.Lock()
	for _, w := range workloads {
		for _, su := range setups {
			cell := w.Name + "/" + su.Name
			if !r.warmShareable(su) || r.results.has(cell) {
				continue
			}
			if e := r.pairs[w.Name]; e != nil && pairRole(su) == 0 && !e.taken[0] {
				continue
			}
			c := claim{cell, w.Name + "/" + su.WarmupKey}
			r.claims[c.cell]++
			r.pending[c.master]++
			counted = append(counted, c)
		}
	}
	r.mu.Unlock()
	return func() {
		for _, c := range counted {
			r.retireClaim(c.cell, c.master)
		}
	}
}

// retireClaim retires one of cell's counted claims, if it holds any, and
// releases master if that was its last.
func (r *Runner) retireClaim(cell, master string) {
	if took, left := r.takeClaim(cell, master); took && left == 0 {
		r.releaseIdle(master)
	}
}

// takeClaim consumes one of cell's counted claims, if it holds any, and
// returns how many counted consumers master has left.
func (r *Runner) takeClaim(cell, master string) (took bool, left int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claims[cell] > 0 {
		took = true
		if r.claims[cell]--; r.claims[cell] == 0 {
			delete(r.claims, cell)
		}
		if r.pending[master]--; r.pending[master] == 0 {
			delete(r.pending, master)
		}
	}
	return took, r.pending[master]
}

// releaseIdle drops the master's machine unless a consumer was counted for
// it meanwhile.
func (r *Runner) releaseIdle(master string) {
	m, ok := r.warm.value(master)
	if !ok || m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r.mu.Lock()
	idle := r.pending[master] == 0
	r.mu.Unlock()
	if idle {
		m.sys = nil
	}
}

// runShared executes a cell via the warm-state store: the first setup for
// (workload, WarmupKey) builds and warms the master, every consumer measures
// on its own fork, and the consumer that takes the master's last counted
// claim releases its machine. ok=false means the path was unavailable
// (master already released or fork refused, counted in WarmForks) and the
// caller should fall back to the cold path; errors from building or warming
// the shared machine are real and propagate.
func (r *Runner) runShared(ctx context.Context, w trace.Workload, setup Setup) (res sim.Result, ok bool, err error) {
	master := w.Name + "/" + setup.WarmupKey
	m, _, err := r.warm.do(ctx, master, func() (*warmMaster, error) {
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
		// warmShareable guarantees the in-memory trace mode, so the cursor
		// is a BufferReader whose position the forks resume from.
		br := rd.(*trace.BufferReader)
		return &warmMaster{sys: sys, buf: br.Buffer(), pos: br.Pos()}, nil
	})
	if err != nil {
		return sim.Result{}, true, err
	}

	m.mu.Lock()
	var fork *sim.System
	if m.sys != nil {
		if f, ferr := m.sys.Fork(); ferr == nil {
			fork = f
		}
	}
	// Every consumer consumes, forked or not; the last counted one releases
	// the master for GC.
	if _, left := r.takeClaim(w.Name+"/"+setup.Name, master); left == 0 {
		m.sys = nil
	}
	m.mu.Unlock()
	if fork == nil {
		// An unforkable machine, or a consumer arriving after the master's
		// release, warms its own machine on the cold path.
		r.warmCold.Add(1)
		return sim.Result{}, false, nil
	}
	r.warmForked.Add(1)
	res, err = measure(ctx, r.params, fork, []trace.Generator{m.buf.ReaderAt(m.pos)}, setup)
	return res, true, err
}

// runUncached simulates one cell. A paired cell (pair != nil) takes its
// workload's shared baseline pass: the baseline cell's result is the pass's
// Result, the oracle replays the pass's record. A consumer whose leader
// failed runs on its own.
func (r *Runner) runUncached(ctx context.Context, w trace.Workload, setup Setup, pair *pairEntry, leadPass bool) (sim.Result, error) {
	var record *pred.DOARecord
	switch {
	case pair != nil && leadPass:
		rec, res, err := r.baselinePass(ctx, w, nil)
		r.publishPair(w, pair, rec, res, err)
		if err != nil || !setup.Oracle {
			return res, err
		}
		record = rec
	case pair != nil && pair.err == nil:
		r.sharedPasses.Add(1)
		if !setup.Oracle {
			return pair.res, nil
		}
		record = pair.rec
	}
	if r.warmShareable(setup) {
		if res, ok, err := r.runShared(ctx, w, setup); ok {
			return res, err
		}
	}

	if setup.Oracle {
		if record == nil {
			// Recording pass on its own: the baseline machine over the
			// same trace, its Result unused.
			rec, _, err := r.baselinePass(ctx, w, setup.Config)
			if err != nil {
				return sim.Result{}, err
			}
			r.alonePasses.Add(1)
			record = rec
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
