package exp

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Multi-core sweep scheduling parameters (see DESIGN.md §15): a 10k-access
// quantum keeps context switches frequent enough to matter at the quick
// trace lengths, and one unmap per 50k tenant accesses injects a steady
// shootdown stream without letting flush traffic dominate the miss rates.
const (
	multiCoreQuantum    = 10_000
	multiCoreUnmapEvery = 50_000
)

// multiCoreCell is one topology point of the sweep.
type multiCoreCell struct {
	cores, tenants int
}

func (c multiCoreCell) name() string { return fmt.Sprintf("%dc×%dt", c.cores, c.tenants) }

// MultiCoreSweep measures how dead-page prediction quality degrades under
// multi-core, multi-tenant interference: the full dpPred+cbPred proposal on
// a shared LLT/LLC while 1–4 cores run 1–4 tenants of the same workload
// (distinct seeds), with ASID-targeted TLB shootdowns on unmap. The
// paper's predictors train on reuse history that shootdown invalidations
// never touch, so the premature-kill column is where cross-tenant pressure
// shows up first.
func MultiCoreSweep(r *Runner) (Series, error) {
	return multiCoreSweep(r, []int{1, 2, 4}, []int{1, 2, 4})
}

// multiCoreSweep runs the cores×tenants grid. Cells run in parallel under
// the runner's worker pool; results are assembled in grid order, so the
// rendered table is identical whatever the job count.
func multiCoreSweep(r *Runner, coreCounts, tenantCounts []int) (Series, error) {
	w, err := trace.ByName("cactusADM")
	if err != nil {
		return Series{}, err
	}

	var cells []multiCoreCell
	for _, c := range coreCounts {
		for _, t := range tenantCounts {
			cells = append(cells, multiCoreCell{cores: c, tenants: t})
		}
	}
	if r.Status != nil {
		for _, c := range cells {
			r.Status.CellQueued(w.Name, c.name())
		}
	}

	ctx := r.baseCtx()
	results := make([]sim.Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c multiCoreCell) {
			defer wg.Done()
			select {
			case r.sem <- struct{}{}: // acquire a pool slot
			case <-ctx.Done():
				errs[i] = fmt.Errorf("exp: %s under %s: %w", w.Name, c.name(), ctx.Err())
				return
			}
			defer func() { <-r.sem }()
			done := r.cellSpan(w.Name, c.name())
			results[i], errs[i] = runMultiCell(ctx, r.params, w, c)
			done(errs[i])
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Series{}, err
		}
	}

	s := Series{
		ID:    "Multi-core",
		Title: "dead-page prediction quality under multi-tenant interference (cactusADM mixes, dpPred+cbPred, asid shootdowns)",
		Cols:  []string{"dpPred acc %", "premature %", "LLT MPKI", "IPC"},
	}
	for i, c := range cells {
		res := results[i]
		s.Rows = append(s.Rows, SeriesRow{Name: c.name(), Values: []float64{
			100 * res.LLTAccuracy.Accuracy(),
			100 * res.LLTConfusion.PrematureRate(),
			res.LLTMPKI,
			res.IPC,
		}})
	}
	s.summarize("mean", mean)
	return s, nil
}

// runMultiCell simulates one topology point of the sweep: the full
// dpPred+cbPred proposal on a fresh multi-core machine, graded for accuracy
// and confusion on the shared structures. The sweep bypasses the runner's
// memo (keys and warm-state sharing are single-machine shaped); every cell
// simulates from cold, which keeps the 1c×1t row comparable with the
// single-machine dpPred column.
func runMultiCell(ctx context.Context, p Params, w trace.Workload, c multiCoreCell) (sim.Result, error) {
	setup := DPPredCBPredSetup()
	setup.Instrument.Accuracy = true
	cfg := sim.DefaultConfig()
	cfg.Seed = p.Seed
	return RunMulti(ctx, p, w, setup, sim.MultiConfig{
		Machine:    cfg,
		Cores:      c.cores,
		Tenants:    c.tenants,
		Quantum:    multiCoreQuantum,
		Shootdown:  sim.ShootdownFlushASID,
		UnmapEvery: multiCoreUnmapEvery,
	}, nil)
}

// RunMulti simulates one multi-core cell: the machine mc describes, with
// setup's predictors (built by BuildMachine and shared by every core) and
// metrics (optional) attached, feeds tenant t the generator
// w.New(p.Seed+t) for p.Warmup accesses, then measures p.Measure more
// (Measure).
func RunMulti(ctx context.Context, p Params, w trace.Workload, setup Setup, mc sim.MultiConfig,
	metrics *obs.Registry) (sim.Result, error) {
	s, err := BuildMachine(setup, mc)
	if err != nil {
		return sim.Result{}, err
	}
	s.AttachMetrics(metrics)
	gens := TenantGenerators(w, p.Seed, mc.Tenants)
	if err := s.RunTenants(ctx, gens, p.Warmup); err != nil {
		return sim.Result{}, err
	}
	return Measure(ctx, p, s, gens, setup)
}

// TenantGenerators returns one generator per tenant of w: tenant t runs
// w.New(seed+t).
func TenantGenerators(w trace.Workload, seed uint64, tenants int) []trace.Generator {
	gens := make([]trace.Generator, tenants)
	for t := range gens {
		gens[t] = w.New(seed + uint64(t))
	}
	return gens
}

// Measure runs the post-warmup half of a cell outside the runner on a
// warmed machine of any topology: the runner's measurement, with one
// generator per tenant, and with setup.Instrument.Accuracy the shared LLT
// and LLC are graded for confusion as well as accuracy.
func Measure(ctx context.Context, p Params, s *sim.System, gens []trace.Generator, setup Setup) (sim.Result, error) {
	if setup.Instrument.Accuracy {
		if err := s.EnableConfusionTracking(); err != nil {
			return sim.Result{}, err
		}
	}
	return measure(ctx, p, s, gens, setup)
}
