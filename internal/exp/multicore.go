package exp

import (
	"fmt"

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

// multiCoreDims is the full sweep's core and tenant counts.
var multiCoreDims = []int{1, 2, 4}

// MultiCoreSweep measures how dead-page prediction quality degrades under
// multi-core, multi-tenant interference: the full dpPred+cbPred proposal on
// a shared LLT/LLC while 1–4 cores run 1–4 tenants of the same workload
// (distinct seeds), with ASID-targeted TLB shootdowns on unmap. The
// paper's predictors train on reuse history that shootdown invalidations
// never touch, so the premature-kill column is where cross-tenant pressure
// shows up first.
func MultiCoreSweep(r *Runner) (Series, error) {
	return multiCoreSweep(r, multiCoreDims, multiCoreDims)
}

// multiCoreSetups is the sweep's grid, one setup per cores×tenants point
// in row order, named like "2c×4t": the full proposal on that topology,
// graded for accuracy and confusion on the shared structures. No setup
// shares warm state; every cell simulates from cold, which keeps the 1c×1t
// row comparable with the single-machine dpPred column.
func multiCoreSetups(coreCounts, tenantCounts []int) []Setup {
	var setups []Setup
	for _, c := range coreCounts {
		for _, t := range tenantCounts {
			su := DPPredCBPredSetup()
			su.Name = fmt.Sprintf("%dc×%dt", c, t)
			su.WarmupKey = ""
			su.Instrument = Instrumentation{Accuracy: true, Confusion: true}
			su.Topology = Topology{Cores: c, Tenants: t, Quantum: multiCoreQuantum,
				Shootdown: sim.ShootdownFlushASID, UnmapEvery: multiCoreUnmapEvery}
			setups = append(setups, su)
		}
	}
	return setups
}

// multiCoreSweep runs the cores×tenants grid on cactusADM as one RunGrid,
// then reads each cell back in grid order, so the rendered table is
// identical whatever the job count.
func multiCoreSweep(r *Runner, coreCounts, tenantCounts []int) (Series, error) {
	w, err := trace.ByName("cactusADM")
	if err != nil {
		return Series{}, err
	}
	setups := multiCoreSetups(coreCounts, tenantCounts)
	if err := r.RunGrid([]trace.Workload{w}, setups); err != nil {
		return Series{}, err
	}
	s := Series{
		ID:    "Multi-core",
		Title: "dead-page prediction quality under multi-tenant interference (cactusADM mixes, dpPred+cbPred, asid shootdowns)",
		Cols:  []string{"dpPred acc %", "premature %", "LLT MPKI", "IPC"},
	}
	for _, su := range setups {
		res, err := r.Run(w, su)
		if err != nil {
			return Series{}, err
		}
		s.Rows = append(s.Rows, SeriesRow{Name: su.Name, Values: []float64{
			100 * res.LLTAccuracy.Accuracy(),
			100 * res.LLTConfusion.PrematureRate(),
			res.LLTMPKI,
			res.IPC,
		}})
	}
	s.summarize("mean", mean)
	return s, nil
}
