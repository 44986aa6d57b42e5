package exp

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The runner's machines and the storage they draw. Every machine the runner
// builds or forks for a cell takes its cache and TLB arrays from the
// runner's pool (Runner.pool) and gives them back when the plan says it is
// done: a cell's machine once its Result is taken (cold cell, fork,
// baseline pass, oracle replay), a warm master in its node's release hook
// after its last fork. Trace buffers come from the same pool and go back in
// releaseTrace. A machine that cannot go back is kept and counted
// (Storage): one with an observer or metrics attached, or one that failed.

// warmMaster is a warmed machine its grid's warm-path cells fork, and the
// trace cursor after warmup, which each of them forks to resume from. Every
// consumer holds an edge to the trace's node while it reads, so the trace
// is not released under it.
type warmMaster struct {
	sys *sim.System
	gen trace.ForkableGenerator
}

// storageCounts are the runner's machine and trace-buffer counters.
type storageCounts struct {
	built, recycled, kept, tracesReused atomic.Int64
}

// StorageStats is what Storage reports.
type StorageStats struct {
	// Built counts the machines the runner built or forked.
	Built int64
	// Recycled counts those whose storage went back to the pool.
	Recycled int64
	// Kept counts those whose storage did not: an observer or metrics were
	// attached, or the run failed.
	Kept int64
	// TracesReused counts trace buffers materialized into the columns of
	// buffers released before them.
	TracesReused int64
	// Pool is the storage pool's own traffic: arrays reused, allocated
	// and dropped by its bound.
	Pool pool.Stats
}

// Storage reports how the runner's machines and trace buffers used its
// storage pool so far. Once every grid and Run has returned, Built equals
// Recycled + Kept.
func (r *Runner) Storage() StorageStats {
	st := StorageStats{
		Recycled:     r.storage.recycled.Load(), // first: a machine is built before it retires
		Kept:         r.storage.kept.Load(),
		TracesReused: r.storage.tracesReused.Load(),
		Pool:         r.pool.Stats(),
	}
	st.Built = r.storage.built.Load()
	return st
}

// machine builds a cell's machine, which the cell retires (owned) when it
// is done with it. The oracle's two passes substitute their RecorderTLB and
// OracleTLB as the setup's TLB constructor.
func (r *Runner) machine(setup Setup) (*sim.System, error) {
	s, err := BuildMachine(setup, r.params.Seed, r.pool)
	if err == nil {
		r.storage.built.Add(1)
	}
	return s, err
}

// BuildMachine constructs the machine of a non-oracle setup: its Config
// (nil means Table I) with the given seed, under its Topology, with its
// arrays drawn from pl (nil allocates them), and installs its predictors,
// shared by every core, and its prefetcher. A characterization setup's
// machine tracks entry times from its first access, so its samplers see
// the warmup's fills too. cmd/deadsim's checkpoint path, which rebuilds
// the exact machine a checkpoint was taken from, builds through it
// directly.
func BuildMachine(setup Setup, seed uint64, pl *pool.Pool) (*sim.System, error) {
	if setup.Oracle {
		return nil, fmt.Errorf("exp: the oracle's two-pass protocol has no standalone system")
	}
	cfgFn := setup.Config
	if cfgFn == nil {
		cfgFn = sim.DefaultConfig
	}
	cfg := cfgFn()
	cfg.Seed = seed
	t := setup.Topology
	s, err := sim.NewMulti(sim.MultiConfig{Machine: cfg, Cores: max(t.Cores, 1), Tenants: max(t.Tenants, 1),
		Quantum: t.Quantum, Shootdown: t.Shootdown, UnmapEvery: t.UnmapEvery, Pool: pl})
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

// fork forks a warm master; the fork draws from the master's pool.
func (r *Runner) fork(s *sim.System) (*sim.System, error) {
	f, err := s.Fork()
	if err == nil {
		r.storage.built.Add(1)
	}
	return f, err
}

// warm builds and warms the master of a warm-path cell's node, reading the
// trace through the cell's edge te. A master that fails, or panics, is
// kept; a published one is released by its node (releaseMaster).
func (r *Runner) warm(ctx context.Context, w trace.Workload, setup Setup, te *edge) (v any, err error) {
	sys, err := r.machine(setup)
	if err != nil {
		return nil, err
	}
	defer func() {
		if v == nil {
			r.retire(sys, false)
		}
	}()
	rd, err := r.generator(ctx, w, te)
	if err != nil {
		return nil, err
	}
	if err := sys.RunContext(ctx, rd, r.params.Warmup); err != nil {
		return nil, err
	}
	return warmMaster{sys: sys, gen: rd}, nil
}

// releaseMaster is a warm master node's release: its last consumer has
// forked it.
func (r *Runner) releaseMaster(v any) { r.retire(v.(warmMaster).sys, true) }

// owned runs fn, a cell's work on machine s, which the runner built or
// forked for the cell, and retires s when fn returns or panics: its
// storage goes back to the pool only if fn succeeded.
func (r *Runner) owned(s *sim.System, fn func() (sim.Result, error)) (res sim.Result, err error) {
	clean := false
	defer func() { r.retire(s, clean) }()
	res, err = fn()
	clean = err == nil
	return res, err
}

// retire ends the runner's use of machine s. A clean machine whose storage
// nothing else can reach goes back to the pool (sim.System.Release); any
// other is kept.
func (r *Runner) retire(s *sim.System, clean bool) {
	if clean && s.Release() {
		r.storage.recycled.Add(1)
	} else {
		r.storage.kept.Add(1)
	}
}
