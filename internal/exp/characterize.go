package exp

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// characterizationSetup is the baseline machine with samplers enabled; one
// run per workload feeds Figures 1–4 and Table III.
func characterizationSetup() Setup {
	s := Baseline()
	s.Name = "characterize"
	s.Instrument.Characterize = true
	return s
}

// characterization reads one row from a workload's characterization pass;
// the first of Figures 1–4 and Table III pays for the pass, the rest
// replay it from the memo.
func characterization(id, title, unit string, cols []string, row func(sim.Result) []float64) table {
	return table{
		id: id, title: title, unit: unit, cols: cols,
		grid:    []Setup{characterizationSetup()},
		row:     func(res []sim.Result) []float64 { return row(res[0]) },
		summary: "mean",
	}
}

// sampledDead reads the residency view: the % of sampled entries dead or
// DOA at any time.
func sampledDead(d stats.DeadResult) []float64 {
	return []float64{100 * d.SampledDeadFrac(), 100 * d.SampledDOAFrac()}
}

// evictedDead classifies evictions into mostly-dead, DOA and all dead.
func evictedDead(d stats.DeadResult) []float64 {
	return []float64{100 * d.MostlyDeadFrac(), 100 * d.DOAFrac(), 100 * d.DeadFrac()}
}

// Figure1 reports the fraction of LLT entries dead or DOA at any time
// (sampled residency view).
func Figure1(r *Runner) (Series, error) { return r.series(figure1()) }

func figure1() table {
	return characterization("Figure 1", "Fraction of LLT entries dead or DOA at any time",
		"% of sampled LLT entries", []string{"Dead", "DOA"},
		func(res sim.Result) []float64 { return sampledDead(res.LLTDead) })
}

// Figure2 classifies LLT evictions into mostly-dead and DOA.
func Figure2(r *Runner) (Series, error) { return r.series(figure2()) }

func figure2() table {
	return characterization("Figure 2", "Classification of dead pages in LLT (at eviction)",
		"% of LLT evictions", []string{"MostlyDead", "DOA", "TotalDead"},
		func(res sim.Result) []float64 { return evictedDead(res.LLTDead) })
}

// Figure3 reports the fraction of LLC entries dead or DOA at any time.
func Figure3(r *Runner) (Series, error) { return r.series(figure3()) }

func figure3() table {
	return characterization("Figure 3", "Fraction of LLC entries dead or DOA at any time",
		"% of sampled LLC blocks", []string{"Dead", "DOA"},
		func(res sim.Result) []float64 { return sampledDead(res.LLCDead) })
}

// Figure4 classifies LLC evictions into mostly-dead and DOA.
func Figure4(r *Runner) (Series, error) { return r.series(figure4()) }

func figure4() table {
	return characterization("Figure 4", "Classification of dead blocks in LLC (at eviction)",
		"% of LLC evictions", []string{"MostlyDead", "DOA", "TotalDead"},
		func(res sim.Result) []float64 { return evictedDead(res.LLCDead) })
}

// Table3 reports the percentage of LLC DOA blocks that map onto a DOA page
// in the LLT.
func Table3(r *Runner) (Series, error) { return r.series(table3()) }

func table3() table {
	return characterization("Table III", "Percentage of LLC DOA blocks that map on to a DOA page in LLT",
		"% of LLC DOA blocks", []string{"OnDOAPage"},
		func(res sim.Result) []float64 { return []float64{res.Correlation.Percent()} })
}
