package exp

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/pred"
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
	results := make([]sim.MultiResult, len(cells))
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
	s.Summary = make([]float64, len(s.Cols))
	for i := range s.Cols {
		s.Summary[i] = mean(column(s.Rows, i))
	}
	s.SummaryLabel = "mean"
	return s, nil
}

// runMultiCell simulates one topology point of the sweep: the full
// dpPred+cbPred proposal on a fresh multi-core machine, graded for accuracy
// and confusion on the shared structures. The sweep bypasses the runner's
// memo (keys and warm-state sharing are single-machine shaped); every cell
// simulates from cold, which keeps the 1c×1t row comparable with the
// single-machine dpPred column.
func runMultiCell(ctx context.Context, p Params, w trace.Workload, c multiCoreCell) (sim.MultiResult, error) {
	dp, err := pred.Lookup("dpPred")
	if err != nil {
		return sim.MultiResult{}, err
	}
	cb, err := pred.Lookup("cbPred")
	if err != nil {
		return sim.MultiResult{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = p.Seed
	return RunMulti(ctx, p, w, sim.MultiConfig{
		Machine:    cfg,
		Cores:      c.cores,
		Tenants:    c.tenants,
		Quantum:    multiCoreQuantum,
		Shootdown:  sim.ShootdownFlushASID,
		UnmapEvery: multiCoreUnmapEvery,
	}, &dp, &cb, true, nil)
}

// RunMulti simulates one multi-core cell: the machine mc describes, with
// the tlb and llc registrations' predictors (nil means none) shared by
// every core and metrics (optional) attached, feeds tenant t the
// generator w.New(p.Seed+t) for p.Warmup accesses, then measures p.Measure
// more. With accuracy set, the measured region is graded for accuracy and
// confusion on the shared LLT and LLC.
func RunMulti(ctx context.Context, p Params, w trace.Workload, mc sim.MultiConfig, tlb, llc *pred.Registration,
	accuracy bool, metrics *obs.Registry) (sim.MultiResult, error) {
	m, err := sim.NewMulti(mc)
	if err != nil {
		return sim.MultiResult{}, err
	}
	if tlb != nil {
		tp, err := tlb.NewTLB(m.LLT().Inner())
		if err != nil {
			return sim.MultiResult{}, err
		}
		m.SetTLBPredictor(tp)
	}
	if llc != nil {
		lp, err := llc.NewLLC(m.LLC())
		if err != nil {
			return sim.MultiResult{}, err
		}
		m.SetLLCPredictor(lp)
	}
	m.AttachMetrics(metrics)

	gens := make([]trace.Generator, mc.Tenants)
	for t := range gens {
		gens[t] = w.New(p.Seed + uint64(t))
	}
	if err := m.RunContext(ctx, gens, p.Warmup); err != nil {
		return sim.MultiResult{}, err
	}
	if accuracy {
		if err := m.EnableAccuracyTracking(); err != nil {
			return sim.MultiResult{}, err
		}
		if err := m.EnableConfusionTracking(); err != nil {
			return sim.MultiResult{}, err
		}
	}
	m.StartMeasurement()
	if err := m.RunContext(ctx, gens, p.Measure); err != nil {
		return sim.MultiResult{}, err
	}
	m.Finish()
	return m.Result(), nil
}
