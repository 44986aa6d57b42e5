package exp

import (
	"fmt"
	"math"
	"strings"
)

// Series is one experiment's result grid: one row per workload, one column
// per configuration, plus a per-column summary row.
type Series struct {
	// ID is the paper artifact ("Figure 9", "Table IV", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Unit labels the cell values.
	Unit string
	// Cols are the column headers.
	Cols []string
	// Rows hold one value per column for each workload.
	Rows []SeriesRow
	// Summary is the per-column aggregate; SummaryLabel names it.
	Summary      []float64
	SummaryLabel string
	// Footers are extra per-column annotation rows rendered after the
	// summary (the extended Table IV's storage normalization); nil for
	// the paper's own artifacts, whose layout is golden-pinned.
	Footers []SeriesRow
}

// SeriesRow is one workload's values.
type SeriesRow struct {
	Name   string
	Values []float64
}

// Format renders the series as an aligned text table.
func (s Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", s.ID, s.Title)
	if s.Unit != "" {
		fmt.Fprintf(&b, "(%s)\n", s.Unit)
	}

	nameW := len("workload")
	for _, r := range s.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	for _, r := range s.Footers {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	colW := make([]int, len(s.Cols))
	for i, c := range s.Cols {
		colW[i] = len(c)
		if colW[i] < 8 {
			colW[i] = 8
		}
	}

	line := func(name string, vs []float64) {
		fmt.Fprintf(&b, "%-*s", nameW, name)
		for i, v := range vs {
			fmt.Fprintf(&b, "  %*s", colW[i], formatCell(v))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-*s", nameW, "workload")
	for i, c := range s.Cols {
		fmt.Fprintf(&b, "  %*s", colW[i], c)
	}
	b.WriteByte('\n')
	for _, r := range s.Rows {
		line(r.Name, r.Values)
	}
	if s.Summary != nil {
		line(s.SummaryLabel, s.Summary)
	}
	for _, r := range s.Footers {
		line(r.Name, r.Values)
	}
	return b.String()
}

func formatCell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch {
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return math.NaN()
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// mean returns the arithmetic mean.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// column extracts one column from the rows.
func column(rows []SeriesRow, i int) []float64 {
	out := make([]float64, len(rows))
	for j, r := range rows {
		out[j] = r.Values[i]
	}
	return out
}

// summarize fills the summary row with fn over each column.
func (s *Series) summarize(label string, fn func([]float64) float64) {
	s.SummaryLabel = label
	s.Summary = make([]float64, len(s.Cols))
	for i := range s.Cols {
		s.Summary[i] = fn(column(s.Rows, i))
	}
}

// pctReduction converts (base, new) counters into a percentage reduction.
func pctReduction(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - new) / base
}
