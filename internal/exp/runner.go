// Package exp reproduces the paper's evaluation: every figure and table of
// §IV and §VI is an Experiment (Experiments) whose structured result
// cmd/paperexp prints in the paper's layout and bench_test.go regenerates
// under `go test -bench`. See DESIGN.md §5 for the experiment index.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/pool"
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
	// Characterization cells carry none: their machine tracks entry times
	// from the first access, which a master built without them cannot
	// supply (warmShareable).
	WarmupKey string
	// Topology shapes the machine: cores over a shared LLT and LLC, and
	// tenants beyond the cell's workload (DESIGN.md §15). The zero value is
	// the paper's one-core, one-tenant machine.
	Topology Topology
}

// Topology is a cell's multi-core, multi-tenant machine shape. Tenant 0
// replays the cell's workload trace and tenant t > 0 runs the workload's
// generator at seed+t; Cores and Tenants below 1 mean 1.
type Topology struct {
	Cores, Tenants int
	// Quantum, Shootdown and UnmapEvery are sim.MultiConfig's (BuildMachine).
	Quantum    uint64
	Shootdown  sim.ShootdownPolicy
	UnmapEvery uint64
}

// Instrumentation selects measurement machinery.
type Instrumentation struct {
	// Accuracy enables the §VI-C mirror-structure grading.
	Accuracy bool
	// Characterize enables the §IV samplers and Table III correlation.
	Characterize bool
	// Confusion enables the shared-structure true-dead/premature/missed
	// grading the multi-core sweep reports.
	Confusion bool
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
	// directory: each workload's stream is recorded once (temp+rename) and
	// every cell replays it through its own streaming chunk cursor, so
	// memory stays bounded by chunks-in-flight instead of the full
	// warmup+measure trace.
	traceDir string

	// ctx is the base context Run and RunGrid execute under (SetContext);
	// nil means context.Background(). The explicit-context entry points
	// RunContext/RunGridContext take precedence over it.
	ctx context.Context

	// results and fps are the runner's single-flight stores (flight): one
	// result per (workload, setup) name pair, and one content fingerprint
	// per workload, computed the first time a cell is keyed (CellKey hashes
	// the stream prefix, so sharing it keeps keying O(1) per cell). What
	// cells share beyond these, a workload's trace, a baseline pass or a
	// warmed master, lives in the nodes of their grid's plan (planGrid) and
	// goes with its last reader.
	results flight[sim.Result]
	fps     flight[string]

	onPlan func(*gridPlan) // when set, sees every plan before it runs (tests)

	// recordPasses counts the oracle cells' record passes, sharedPasses
	// those whose Result a baseline cell took (RecordPasses).
	sharedPasses, recordPasses atomic.Int64
	// warmForked and warmCold count warm-path consumers: measured on a fork
	// of the shared master, or sent to the cold path because Fork refused
	// it (WarmForks).
	warmForked, warmCold atomic.Int64
	// tracesMade and tracesFreed count trace nodes materialized (or opened)
	// and released by their last reader (Traces).
	tracesMade, tracesFreed atomic.Int64

	// pool is the storage pool: it recycles the arrays of the machines and
	// traces the runner is done with (machines.go); storage counts what
	// became of them (Storage).
	pool    *pool.Pool
	storage storageCounts

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
	r.pool = pool.New(n + 1) // idle arrays per size: one per job and one spare
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
// feed the same columnar chunks to sim.System.RunContext — and a warm
// master's forks resume from forks of its StreamReader. The directory
// must exist. A trace file opened from it stays open while cells of its
// grid may read it and closes when the last of them drops its edge. Call
// before submitting work.
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

// Traces reports the workload traces materialized so far (with
// SetTraceDir: opened), one per plan and workload a cell read, and how many
// of them their last reader has released. Once every grid and Run has
// returned the two are equal.
func (r *Runner) Traces() (materialized, released int64) {
	released = r.tracesFreed.Load() // first: a trace is counted before it is released
	return r.tracesMade.Load(), released
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
// A lone cell is a plan of one, which shares nothing: a warm-path cell
// warms its own machine.
func (r *Runner) RunContext(ctx context.Context, w trace.Workload, setup Setup) (sim.Result, error) {
	p := r.planGrid(ctx, []trace.Workload{w}, []Setup{setup})
	cell := w.Name + "/" + setup.Name
	return r.run(ctx, w, setup, p.edges[cell], p.traces[cell])
}

// run runs one cell of a plan, whose edge into a shared node is e (nil if
// it has none) and into its workload's trace te, and drops both when it
// returns, on every path.
func (r *Runner) run(ctx context.Context, w trace.Workload, setup Setup, e, te *edge) (sim.Result, error) {
	defer e.drop()
	defer te.drop()
	res, shared, err := r.results.do(ctx, w.Name+"/"+setup.Name, func() (sim.Result, error) {
		return r.lead(ctx, w, setup, e, te)
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

// lead executes one uncached cell as the memo leader; the plan has already
// served the persistent memo's hits (recall). A cell a worker can rebuild
// by name goes to the external executor, if one is set, inside a cell
// span, so -v and the status board see it; any other cell takes the local
// path (runLocal). A result from either path is published into the
// persistent memo. An executor's cell does not read the trace.
func (r *Runner) lead(ctx context.Context, w trace.Workload, setup Setup, e, te *edge) (res sim.Result, err error) {
	var key string
	if r.Memo != nil || r.Executor != nil {
		// A keying failure (the workload's generator errors while being
		// fingerprinted) is not fatal here: the local path below replays
		// the same generator and reports the error as the cell's outcome.
		key, _ = r.cellKey(ctx, w, setup)
	}
	if key != "" && r.Executor != nil && remote(w, setup) {
		// The span opens when the executor starts the cell, not while it
		// waits in the executor's queue; a cell that never started (its
		// wait was canceled) still opens one here, so it ends failed.
		te.drop()
		var once sync.Once
		var done func(error)
		started := func() { once.Do(func() { done = r.cellSpan(w.Name, setup.Name) }) }
		if res, err = r.Executor(ctx, key, w, setup, started); err != nil {
			err = fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, err)
		}
		started()
		done(err)
	} else {
		res, err = r.runLocal(ctx, w, setup, e, te)
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
// first), and run the cell with panic containment inside a cell span. The
// cell drops its trace edge before it gives up its slot.
func (r *Runner) runLocal(ctx context.Context, w trace.Workload, setup Setup, e, te *edge) (sim.Result, error) {
	// A baseline cell waits for its workload's pass before taking a pool
	// slot, so waiting holds no slot and its progress span covers only its
	// own work. A published pass is its Result, so it drops its trace edge
	// at once; it reads the trace only if the pass failed.
	if e != nil && e.pass && !e.computes {
		select {
		case <-e.done:
		case <-ctx.Done():
			return sim.Result{}, fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, ctx.Err())
		}
		if e.err == nil {
			te.drop()
		}
	}
	select {
	case r.sem <- struct{}{}: // acquire a pool slot
	case <-ctx.Done():
		return sim.Result{}, fmt.Errorf("exp: %s under %s: %w", w.Name, setup.Name, ctx.Err())
	}
	defer func() { <-r.sem }() // release the slot before waking waiters
	defer te.drop()
	done := r.cellSpan(w.Name, setup.Name)
	res, err := r.runUncached(ctx, w, setup, e, te)
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
// determinism), so one broken setup cannot hide another. All results land
// in the memo, so callers aggregate afterwards by replaying Run in
// whatever fixed order the report needs — aggregation order is completely
// decoupled from completion order.
func (r *Runner) RunGrid(workloads []trace.Workload, setups []Setup) error {
	return r.RunGridContext(r.baseCtx(), workloads, setups)
}

// RunGridContext is RunGrid under an explicit context. Canceling ctx stops
// the grid promptly: running cells stop at their next stride check, queued
// cells never start, and the returned error wraps ctx's error with the
// number of unfinished cells, after any cell failures.
//
// Before launching anything the grid is planned (planGrid): its baseline
// passes and warmed masters, each with its consumers counted, so a master
// is released as soon as its last consumer has forked it. Every cell drops
// its edge on return, so nothing the grid shared outlives it.
func (r *Runner) RunGridContext(ctx context.Context, workloads []trace.Workload, setups []Setup) error {
	p := r.planGrid(ctx, workloads, setups)
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
				cell := w.Name + "/" + su.Name
				_, err := r.run(ctx, w, su, p.edges[cell], p.traces[cell])
				if err == nil {
					return
				}
				mu.Lock()
				if isCtxErr(err) {
					canceled++
				} else {
					errs = append(errs, err)
				}
				mu.Unlock()
			}(w, su)
		}
	}
	wg.Wait()
	// Completion order is nondeterministic; sort so the aggregate error
	// reads identically run to run.
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	if canceled > 0 {
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		errs = append(errs, fmt.Errorf("exp: grid canceled (%d cells unfinished): %w", canceled, cause))
	}
	return errors.Join(errs...)
}

// Measure runs the post-warmup half of a cell on a warmed machine of any
// topology: enable the setup's instrumentation, mark the measurement
// region, feed p.Measure accesses from the tenants' generators and collect
// the result. Every runner cell measures through it, and so does
// cmd/deadsim's checkpoint path.
func Measure(ctx context.Context, p Params, s *sim.System, gens []trace.Generator, setup Setup) (sim.Result, error) {
	if setup.Instrument.Confusion {
		if err := s.EnableConfusionTracking(); err != nil {
			return sim.Result{}, err
		}
	}
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

// TenantGenerators returns one generator per tenant of a machine running
// w: tenant 0 reads first, tenant t > 0 runs w.New(seed+t).
func TenantGenerators(first trace.Generator, w trace.Workload, seed uint64, tenants int) []trace.Generator {
	gens := []trace.Generator{first}
	for t := 1; t < tenants; t++ {
		gens = append(gens, w.New(seed+uint64(t)))
	}
	return gens
}

// simulate runs a freshly built machine over the workload's warmup and
// measured accesses, tenant 0's read through the cell's trace edge te, and
// retires it.
func (r *Runner) simulate(ctx context.Context, s *sim.System, w trace.Workload, setup Setup, te *edge) (sim.Result, error) {
	return r.owned(s, func() (sim.Result, error) {
		g, err := r.generator(ctx, w, te)
		if err != nil {
			return sim.Result{}, err
		}
		gens := TenantGenerators(g, w, r.params.Seed, s.Config().Tenants)
		if err := s.RunTenants(ctx, gens, r.params.Warmup); err != nil {
			return sim.Result{}, err
		}
		return Measure(ctx, r.params, s, gens, setup)
	})
}

// warmShareable reports whether a setup can take the warm-state fork path:
// it must declare a WarmupKey, and nothing may need to observe the warmup
// prefix itself (observers attach before warmup; the oracle's record pass
// and prefetchers manage their own state; characterization's samplers
// read entry times its machine tracks from the first access).
func (r *Runner) warmShareable(setup Setup) bool {
	return setup.WarmupKey != "" && r.Observer == nil && setup.Topology == Topology{} &&
		!setup.Oracle && setup.Prefetch == nil && !setup.Instrument.Characterize
}

// runShared executes a cell on a fork of its grid's warmed master (e's
// node). The first consumer to reach a pool slot builds and warms it in its
// own span; the others wait for it in theirs, as they queued right behind
// it. Each consumer drops its edge once it has forked, so the last fork
// releases the machine into the storage pool (releaseMaster). ok=false
// sends the caller to the cold path: Fork refused (counted in WarmForks),
// or the master failed for another cell.
func (r *Runner) runShared(ctx context.Context, w trace.Workload, setup Setup, e, te *edge) (res sim.Result, ok bool, err error) {
	e.computes = e.claimed.CompareAndSwap(false, true)
	if !e.computes {
		select {
		case <-e.done:
		case <-ctx.Done():
			return sim.Result{}, true, ctx.Err()
		}
	} else {
		e.publish(r.warm(ctx, w, setup, te))
	}
	if e.err != nil {
		// A master that failed to warm for another cell sends this one to
		// the cold path.
		return sim.Result{}, e.computes, e.err
	}

	e.mu.Lock()
	m := e.val.(warmMaster)
	fork, ferr := r.fork(m.sys)
	e.mu.Unlock()
	src := m.gen.Fork()
	e.drop()
	if ferr != nil {
		r.warmCold.Add(1)
		return sim.Result{}, false, nil
	}
	r.warmForked.Add(1)
	res, err = r.owned(fork, func() (sim.Result, error) {
		return Measure(ctx, r.params, fork, []trace.Generator{src}, setup)
	})
	return res, true, err
}

// runUncached simulates one cell. A cell with an edge consumes its node:
// the oracle runs its workload's pass, the baseline takes the pass's
// Result, a warm-path cell measures on a fork of its master; a consumer
// whose node failed runs on its own. A panicking Setup constructor or
// predictor fails only its own cell, with a stack.
func (r *Runner) runUncached(ctx context.Context, w trace.Workload, setup Setup, e, te *edge) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	switch {
	case e == nil || setup.Oracle:
	case !e.pass:
		if res, ok, err := r.runShared(ctx, w, setup, e, te); ok {
			return res, err
		}
	case e.err == nil:
		r.sharedPasses.Add(1)
		return e.val.(sim.Result), nil
	}

	if setup.Oracle {
		// Recording pass: the baseline machine over the same trace. A
		// paired oracle publishes its Result, which is the baseline cell's.
		record, res, err := r.baselinePass(ctx, w, setup.Config, te)
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
		// record, as its TLB predictor; the record's storage goes back to
		// the pool once the replay is done.
		defer record.Release()
		setup.Oracle = false
		setup.TLB = func(*sim.System) (pred.TLBPredictor, error) { return pred.NewOracleTLB(record), nil }
	}
	s, err := r.machine(setup)
	if err != nil {
		return sim.Result{}, err
	}
	if r.Observer != nil {
		// Attach before warmup: learning curves need the predictors'
		// cold-start behaviour, so interval samples and trace events
		// cover the whole run (Result stays measurement-scoped). Each run
		// observes through its own forked scope so parallel runs cannot
		// interleave; join publishes into the shared bundle even when the
		// run errors, flushing whatever was traced. The tracer and interval
		// sampler are single-machine instruments: a multi-topology cell
		// registers its per-core metrics and histograms only.
		child, join := r.Observer.ForkRun(w.Name, setup.Name)
		defer join()
		if setup.Topology == (Topology{}) {
			s.AttachObserver(child)
		} else {
			s.AttachMetrics(child.Metrics)
		}
	}
	return r.simulate(ctx, s, w, setup, te)
}

// baselinePass runs the predictor-less machine config describes (nil means
// Table I) over the workload's warmup and measured accesses, with a
// RecorderTLB capturing every LLT fill's ground-truth DOA outcome for the
// oracle. The recorder never bypasses and sim.Result reports nothing about
// predictors, so the Result is the plain machine's cell bit for bit.
func (r *Runner) baselinePass(ctx context.Context, w trace.Workload, config func() sim.Config, te *edge) (*pred.DOARecord, sim.Result, error) {
	rec := pred.NewPooledDOARecord(r.pool)
	s, err := r.machine(Setup{Config: config, TLB: func(*sim.System) (pred.TLBPredictor, error) {
		return pred.NewRecorderTLB(rec), nil
	}})
	if err == nil {
		var res sim.Result
		if res, err = r.simulate(ctx, s, w, Setup{}, te); err == nil {
			return rec, res, nil
		}
	}
	rec.Release()
	return nil, sim.Result{}, err
}

// --- Standard setups -----------------------------------------------------

// Baseline is the unmodified Table I machine. Its WarmupKey is its own:
// the characterization cell runs the same machine but never forks
// (warmShareable).
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
