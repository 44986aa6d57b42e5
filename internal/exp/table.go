package exp

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// table is one experiment: the grid of setups it simulates on every
// workload of trace.Workloads() and how it reads a row from their Results.
// Every figure and table of the paper is a table value run by
// Runner.series, and the setup catalog is the union of their grids.
type table struct {
	id, title, unit string
	cols            []string
	// grid is the setups in the order RunGrid plans them; row receives one
	// workload's Results in the same order.
	grid []Setup
	row  func([]sim.Result) []float64
	// summary labels the summary row: "mean" or "geomean".
	summary string
}

// series simulates t's grid through the worker pool, then reads every cell
// back from the memo in the paper's fixed row and column order. A planning
// runner (PlanGrid) stops at RunGrid.
func (r *Runner) series(t table) (Series, error) {
	workloads := trace.Workloads()
	if err := r.RunGrid(workloads, t.grid); err != nil {
		return Series{}, err
	}
	s := Series{ID: t.id, Title: t.title, Unit: t.unit, Cols: t.cols}
	res := make([]sim.Result, len(t.grid))
	for _, w := range workloads {
		for i, su := range t.grid {
			var err error
			if res[i], err = r.Run(w, su); err != nil {
				return Series{}, err
			}
		}
		s.Rows = append(s.Rows, SeriesRow{Name: w.Name, Values: t.row(res)})
	}
	fn := mean
	if t.summary == "geomean" {
		fn = geomean
	}
	s.summarize(t.summary, fn)
	return s, nil
}

// paperTables is every table the paper's evaluation prints, in paperexp's
// order; the extended Table IV's arena comes from the registry instead.
func paperTables() []table {
	return []table{
		figure1(), figure2(), figure3(), figure4(), table3(),
		figure9(), table4(), figure10(), table5(), table6(), table7(),
		figure11a(), figure11b(), figure11c(), figure11d(), figure11e(), figure11f(),
		extensionPrefetch(), extensionDIP(), ablationThreshold(), ablationCounterBits(),
	}
}

// versus compares each setup against the Table I baseline on the same
// workload: one column per setup, valued metric(baseline, setup).
func versus(id, title, unit string, setups []Setup, cols []string,
	metric func(base, res sim.Result) float64, summary string) table {
	return table{
		id: id, title: title, unit: unit, cols: cols,
		grid: append([]Setup{Baseline()}, setups...),
		row: func(res []sim.Result) []float64 {
			out := make([]float64, len(setups))
			for i := range setups {
				out[i] = metric(res[0], res[i+1])
			}
			return out
		},
		summary: summary,
	}
}

// setupNames returns the setups' names, the default column headers.
func setupNames(setups []Setup) []string {
	names := make([]string, len(setups))
	for i, su := range setups {
		names[i] = su.Name
	}
	return names
}

func normalizedIPC(base, res sim.Result) float64 { return res.IPC / base.IPC }

func lltMPKIReduction(base, res sim.Result) float64 { return pctReduction(base.LLTMPKI, res.LLTMPKI) }

func llcMPKIReduction(base, res sim.Result) float64 { return pctReduction(base.LLCMPKI, res.LLCMPKI) }

// ipcTable normalizes each setup's IPC to the Table I baseline's on the
// same workload; cols defaults to the setup names.
func ipcTable(id, title string, setups []Setup, cols ...string) table {
	if cols == nil {
		cols = setupNames(setups)
	}
	return versus(id, title, "IPC normalized to baseline", setups, cols, normalizedIPC, "geomean")
}

// pairedIPCTable normalizes each column's predictor setup to the baseline
// of its own machine: the grid is the (baseline, predictor) pairs in
// order, one pair per column.
func pairedIPCTable(id, title string, pairs [][2]Setup, cols []string) table {
	t := table{id: id, title: title, unit: "IPC normalized to same-size baseline", cols: cols, summary: "geomean"}
	for _, p := range pairs {
		t.grid = append(t.grid, p[0], p[1])
	}
	t.row = func(res []sim.Result) []float64 {
		out := make([]float64, len(pairs))
		for i := range pairs {
			out[i] = normalizedIPC(res[2*i], res[2*i+1])
		}
		return out
	}
	return t
}
