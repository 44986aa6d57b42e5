package exp

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// quickRunner shares one memoized runner across the package's tests so the
// baseline simulations run once.
var quickRunner = NewRunner(QuickParams())

// quickUnion is the package's quickRunner experiments (and the golden
// arena grid), planned as one grid by quickGrid.
var quickUnion = []func(*Runner) (Series, error){
	Figure1, Figure2, Figure3, Figure4, Table3, Figure9, Table4, Figure10,
	Table5, Table6, Table7, Figure11a, Figure11b, Figure11c, Figure11d,
	Figure11e, Figure11f, ExtensionPrefetch, ExtensionDIP, AblationThreshold,
	AblationCounterBits,
	func(r *Runner) (Series, error) { return Series{}, r.RunGrid(trace.Workloads(), arenaGoldenSetups()) },
}

var (
	quickOnce sync.Once
	quickErr  error
)

// quickGrid is paperGrid for a test that reads quickRunner's grids. The
// first call simulates the union of every such grid (quickUnion) as one
// planned grid, as paperexp does, so each workload's trace materializes
// once and warm masters and oracle passes are shared across experiments;
// every experiment's own grid is then memo hits.
func quickGrid(t *testing.T) {
	t.Helper()
	paperGrid(t)
	quickOnce.Do(func() {
		var ws []trace.Workload
		var setups []Setup
		if ws, setups, quickErr = PlanGrid(quickRunner.Params(), quickUnion...); quickErr == nil {
			quickErr = quickRunner.RunGrid(ws, setups)
		}
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
}

// paperGrid marks a test of the full-length QuickParams paper grid (its
// shapes and golden snapshots) and skips it under -race. The grid's
// numbers do not depend on the race detector and CI checks them in its
// non-race test step; the runner's concurrency is raced by the short-grid
// tests (parallel, cancel, pair, warm, serve). Under -race the full grid
// alone takes about 27 minutes on a 2-vCPU host.
func paperGrid(t *testing.T) {
	t.Helper()
	if raceDetector {
		t.Skip("full-length paper grid: checked by the non-race run")
	}
}

func TestRunMemoizes(t *testing.T) {
	r := NewRunner(QuickParams())
	starts, dones := 0, 0
	r.ProgressStart = func(string, string) { starts++ }
	r.ProgressDone = func(_, _ string, elapsed time.Duration, err error) {
		dones++
		if elapsed <= 0 {
			t.Errorf("ProgressDone elapsed = %v, want > 0", elapsed)
		}
		if err != nil {
			t.Errorf("ProgressDone err = %v, want nil", err)
		}
	}
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(w, Baseline()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(w, Baseline()); err != nil {
		t.Fatal(err)
	}
	if starts != 1 || dones != 1 {
		t.Errorf("baseline simulated start=%d done=%d times, want 1/1 (memoized)", starts, dones)
	}
}

func TestFigure1Shape(t *testing.T) {
	quickGrid(t)
	s, err := Figure1(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 14 || len(s.Cols) != 2 {
		t.Fatalf("grid is %dx%d, want 14x2", len(s.Rows), len(s.Cols))
	}
	// Paper: on average ~82% of LLT entries dead at any time, DOA
	// dominating. Accept a loose band for the quick configuration.
	if dead := s.Summary[0]; dead < 50 {
		t.Errorf("mean sampled dead fraction %.1f%%; paper ≈82%%", dead)
	}
	if doa, dead := s.Summary[1], s.Summary[0]; doa < dead/2 {
		t.Errorf("DOA %.1f%% not dominant within dead %.1f%%", doa, dead)
	}
}

func TestFigure2DOADominates(t *testing.T) {
	quickGrid(t)
	s, err := Figure2(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: >85% of dead evictions are DOA on average.
	if doa, total := s.Summary[1], s.Summary[2]; doa < total*0.6 {
		t.Errorf("mean DOA %.1f%% of evictions vs total dead %.1f%%; DOA should dominate", doa, total)
	}
}

func TestFigure3Shape(t *testing.T) {
	quickGrid(t)
	s, err := Figure3(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 14 || len(s.Cols) != 2 {
		t.Fatalf("grid is %dx%d, want 14x2", len(s.Rows), len(s.Cols))
	}
	// Paper: ≈83% of LLC blocks dead at any time. DOA blocks are dead
	// blocks, so no workload can show more DOA than dead.
	if dead := s.Summary[0]; dead < 50 {
		t.Errorf("mean sampled dead fraction %.1f%%; paper ≈83%%", dead)
	}
	for _, row := range s.Rows {
		if dead, doa := row.Values[0], row.Values[1]; doa > dead {
			t.Errorf("%s: DOA %.2f%% exceeds dead %.2f%%", row.Name, doa, dead)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	quickGrid(t)
	s, err := Figure4(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 14 || len(s.Cols) != 3 {
		t.Fatalf("grid is %dx%d, want 14x3", len(s.Rows), len(s.Cols))
	}
	// Paper: LLC dead blocks are largely dead on arrival, so DOA is the
	// larger class of dead evictions on the mean.
	if mostly, doa := s.Summary[0], s.Summary[1]; doa <= mostly {
		t.Errorf("mean DOA %.1f%% of evictions not above mostly-dead %.1f%%", doa, mostly)
	}
	for _, row := range s.Rows {
		mostly, doa, total := row.Values[0], row.Values[1], row.Values[2]
		if mostly > total || doa > total {
			t.Errorf("%s: a class exceeds total dead %.2f%% (mostly-dead %.2f%%, DOA %.2f%%)",
				row.Name, total, mostly, doa)
		}
	}
}

func TestTable3CorrelationPresent(t *testing.T) {
	quickGrid(t)
	s, err := Table3(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 72.7% of DOA blocks on DOA pages, on average; demand ≥ 50%.
	if s.Summary[0] < 50 {
		t.Errorf("mean DOA-block-on-DOA-page %.1f%%; paper ≈72.7%%", s.Summary[0])
	}
}

func TestFigure9DPPredWins(t *testing.T) {
	quickGrid(t)
	s, err := Figure9(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cols) != 4 {
		t.Fatalf("Figure 9 has %d columns, want 4", len(s.Cols))
	}
	// Columns: AIP-TLB, SHiP-TLB, dpPred, iso-storage.
	aip, _, dp, iso := s.Summary[0], s.Summary[1], s.Summary[2], s.Summary[3]
	if dp <= 1.01 {
		t.Errorf("dpPred geomean normalized IPC %.4f; paper reports ≈1.05", dp)
	}
	if dp < aip {
		t.Errorf("AIP-TLB geomean %.4f beats dpPred %.4f; paper has AIP ≈ baseline", aip, dp)
	}
	if dp < iso {
		t.Errorf("iso-storage geomean %.4f beats dpPred %.4f", iso, dp)
	}
	// AIP-TLB must be close to the baseline (the paper's point: cache
	// dead-block predictors target non-DOA entries and do nothing for
	// the LLT).
	if aip < 0.98 || aip > 1.03 {
		t.Errorf("AIP-TLB geomean %.4f; expected ≈1.00", aip)
	}
	// dpPred must never significantly regress any workload.
	for _, row := range s.Rows {
		if row.Values[2] < 0.97 {
			t.Errorf("%s: dpPred normalized IPC %.4f < 0.97", row.Name, row.Values[2])
		}
	}
}

func TestTable4OracleBeatsDPPred(t *testing.T) {
	quickGrid(t)
	s, err := Table4(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	dp, oracle := s.Summary[2], s.Summary[4]
	if oracle < dp {
		t.Errorf("oracle mean MPKI reduction %.2f%% < dpPred %.2f%%", oracle, dp)
	}
	if dp <= 0 {
		t.Errorf("dpPred mean LLT MPKI reduction %.2f%% not positive", dp)
	}
}

func TestFigure10FullProposalWins(t *testing.T) {
	quickGrid(t)
	s, err := Figure10(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cols) != 5 {
		t.Fatalf("Figure 10 has %d columns, want 5", len(s.Cols))
	}
	// Columns: AIP-LLC, SHiP-LLC, AIP-TLB+LLC, SHiP-TLB+LLC, dpPred+cbPred.
	both := s.Summary[4]
	if both <= 1.02 {
		t.Errorf("dpPred+cbPred geomean %.4f; paper reports ≈1.083", both)
	}
	for _, i := range []int{0, 2} { // the AIP columns
		if s.Summary[i] > both {
			t.Errorf("%s geomean %.4f beats dpPred+cbPred %.4f", s.Cols[i], s.Summary[i], both)
		}
	}
	// The paper's key consistency claim: the proposal never loses
	// significantly on any workload, while at least one baseline does.
	baselineRegressed := false
	for _, row := range s.Rows {
		if row.Values[4] < 0.97 {
			t.Errorf("%s: dpPred+cbPred normalized IPC %.4f < 0.97 (must not regress)",
				row.Name, row.Values[4])
		}
		for i := 0; i < 4; i++ {
			if row.Values[i] < 0.97 {
				baselineRegressed = true
			}
		}
	}
	if !baselineRegressed {
		t.Error("no baseline predictor regressed anywhere; the paper's consistency contrast is missing")
	}
}

// TestTable5Shape checks Table V's orderings on the quick grid, whose
// cells Figure 10 already runs. cbPred's mean does not top SHiP-LLC's on
// either grid (EXPERIMENTS.md, Table V), so that ordering is not asserted;
// the paper's consistency contrast is.
func TestTable5Shape(t *testing.T) {
	quickGrid(t)
	s, err := Table5(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: AIP-LLC, SHiP-LLC, cbPred.
	aip, cb := s.Summary[0], s.Summary[2]
	if cb <= 0 {
		t.Errorf("cbPred mean LLC MPKI reduction %.3f%% not positive", cb)
	}
	if cb <= aip {
		t.Errorf("cbPred mean reduction %.3f%% does not beat AIP-LLC %.3f%%", cb, aip)
	}
	shipWorst, cbWorst := math.Inf(1), math.Inf(1)
	for _, row := range s.Rows {
		if row.Values[2] < -0.5 {
			t.Errorf("%s: cbPred raises LLC MPKI by %.3f%%", row.Name, -row.Values[2])
		}
		shipWorst = math.Min(shipWorst, row.Values[1])
		cbWorst = math.Min(cbWorst, row.Values[2])
	}
	if shipWorst >= 0 {
		t.Error("SHiP-LLC reduces LLC MPKI on every workload; the paper's mixed-sign column is missing")
	}
	if cbWorst <= shipWorst {
		t.Errorf("cbPred's worst row %.3f%% is no better than SHiP-LLC's %.3f%%", cbWorst, shipWorst)
	}
}

func TestTable6ShadowImprovesAccuracy(t *testing.T) {
	quickGrid(t)
	s, err := Table6(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: dpPred Acc, dpPred Cov, dpPred-SH Acc, dpPred-SH Cov,
	// SHiP Acc, SHiP Cov.
	dpAcc, shAcc := s.Summary[0], s.Summary[2]
	if dpAcc+2 < shAcc {
		t.Errorf("shadow table hurt accuracy: dpPred %.1f%% vs -SH %.1f%%", dpAcc, shAcc)
	}
	if dpAcc < 60 {
		t.Errorf("dpPred mean accuracy %.1f%%; paper ≈83.6%%", dpAcc)
	}
}

func TestTable7PFQBoostsAccuracy(t *testing.T) {
	quickGrid(t)
	s, err := Table7(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	cbAcc, noPFQAcc := s.Summary[0], s.Summary[2]
	if cbAcc < 90 {
		t.Errorf("cbPred mean accuracy %.1f%%; paper ≥98%%", cbAcc)
	}
	if cbAcc < noPFQAcc {
		t.Errorf("PFQ filter did not improve accuracy: %.1f%% vs %.1f%%", cbAcc, noPFQAcc)
	}
}

// TestFigure11Shapes checks the six §VI-E sensitivity figures against the
// orderings and ranges EXPERIMENTS.md reports, not exact values. Their
// cells simulate in quickGrid's union grid, as paperexp runs them.
func TestFigure11Shapes(t *testing.T) {
	quickGrid(t)
	figs := []func(*Runner) (Series, error){Figure11a, Figure11b, Figure11c, Figure11d, Figure11e, Figure11f}
	s := make([]Series, len(figs))
	for i, fig := range figs {
		var err error
		if s[i], err = fig(quickRunner); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c, d, e, f := s[0].Summary, s[1].Summary, s[2].Summary, s[3].Summary, s[4].Summary, s[5].Summary

	// 11a: dpPred pays at every LLT size, and cactusADM's gain grows with
	// the LLT (it thrashes the smaller ones).
	for i, g := range a {
		if g <= 1 {
			t.Errorf("11a: dpPred geomean %.4f at %s, want > 1", g, s[0].Cols[i])
		}
	}
	for _, row := range s[0].Rows {
		if row.Name == "cactusADM" && !(row.Values[0] < row.Values[1] && row.Values[1] <= row.Values[2]) {
			t.Errorf("11a: cactusADM gains %v do not grow with LLT size", row.Values)
		}
	}
	// 11b: the doubled 6+5 table is slightly ahead of the default 6+4,
	// which is close to the 10-bit PC-only index.
	if b[0] < b[1] {
		t.Errorf("11b: 6b PC + 5b VPN geomean %.4f below the default 6+4 %.4f", b[0], b[1])
	}
	if math.Abs(b[1]-b[2]) > 0.02 {
		t.Errorf("11b: 6+4 geomean %.4f vs 10b PC %.4f, want within 0.02", b[1], b[2])
	}
	// 11c and 11d: the shadow size and the PFQ size barely matter.
	if math.Abs(c[0]-c[1]) > 0.01 {
		t.Errorf("11c: 2-entry shadow %.4f vs 4-entry %.4f, want within 0.01", c[0], c[1])
	}
	if math.Abs(d[0]-d[1]) > 0.01 {
		t.Errorf("11d: 8-entry PFQ %.4f vs 64-entry %.4f, want within 0.01", d[0], d[1])
	}
	// 11e: the proposal still pays with a 3 MB LLC, but less than at 2 MB.
	if e[1] <= 1 || e[1] >= e[0] {
		t.Errorf("11e: 3 MB gain %.4f, want above 1 and below the 2 MB gain %.4f", e[1], e[0])
	}
	// 11f: SRRIP in the LLT alone adds little; dpPred on top of it adds
	// more; SRRIP in both structures beats the LLT alone; and
	// dpPred+cbPred on top of that adds a large margin.
	srripLLT, srripDP, srripBoth, srripCB := f[0], f[1], f[2], f[3]
	if srripLLT < 0.99 || srripLLT > 1.03 {
		t.Errorf("11f: SRRIP LLT geomean %.4f, want within [0.99, 1.03]", srripLLT)
	}
	if srripDP < srripLLT+0.03 {
		t.Errorf("11f: SRRIP dpPred %.4f adds under 3 points over SRRIP LLT %.4f", srripDP, srripLLT)
	}
	if srripBoth <= srripLLT {
		t.Errorf("11f: SRRIP LLT+LLC %.4f does not beat SRRIP LLT %.4f", srripBoth, srripLLT)
	}
	if srripCB < srripBoth+0.05 {
		t.Errorf("11f: SRRIP cbPred %.4f adds under 5 points over SRRIP LLT+LLC %.4f", srripCB, srripBoth)
	}
}

func TestStorageOverheads(t *testing.T) {
	rep, err := StorageOverheads()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, row := range rep.Rows {
		byName[row.Name] = row.KB()
	}
	total := byName["dpPred+cbPred total"]
	if total < 10.5 || total > 11.2 {
		t.Errorf("total storage %.2f KB; paper says ≈10.81 KB", total)
	}
	if aip := byName["AIP (LLT+LLC)"]; aip < 6*total {
		t.Errorf("AIP %.1f KB not ≥6× the proposal %.1f KB", aip, total)
	}
	if ship := byName["SHiP (LLT+LLC)"]; ship < 4*total {
		t.Errorf("SHiP %.1f KB not several× the proposal %.1f KB", ship, total)
	}
	if !strings.Contains(rep.Format(), "dpPred") {
		t.Error("Format output missing rows")
	}
}

func TestSeriesFormat(t *testing.T) {
	s := Series{
		ID: "Figure X", Title: "demo", Unit: "u",
		Cols: []string{"a", "b"},
		Rows: []SeriesRow{{Name: "w1", Values: []float64{1.234, 56.78}}},
	}
	s.summarize("mean", mean)
	out := s.Format()
	for _, want := range []string{"Figure X", "workload", "w1", "1.234", "56.78", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestGeomeanAndMean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean(2,8) = %v, want 4", g)
	}
	if m := mean([]float64{1, 3}); m != 2 {
		t.Errorf("mean(1,3) = %v, want 2", m)
	}
	if pct := pctReduction(10, 9); pct != 10 {
		t.Errorf("pctReduction(10,9) = %v, want 10", pct)
	}
	if pct := pctReduction(0, 5); pct != 0 {
		t.Errorf("pctReduction(0,5) = %v, want 0", pct)
	}
}

func TestFormatHandlesNaN(t *testing.T) {
	s := Series{
		ID: "X", Title: "nan demo", Cols: []string{"a"},
		Rows: []SeriesRow{{Name: "w", Values: []float64{math.NaN()}}},
	}
	out := s.Format()
	if !strings.Contains(out, "-") {
		t.Errorf("NaN cell not rendered as dash:\n%s", out)
	}
}

func TestGeomeanRejectsNonPositive(t *testing.T) {
	if !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("geomean with zero should be NaN")
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("geomean of nothing should be NaN")
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean of nothing should be NaN")
	}
}

func TestFormatCellWidths(t *testing.T) {
	cases := map[float64]string{
		123.456: "123.5",
		12.345:  "12.35",
		1.2345:  "1.234",
	}
	for v, want := range cases {
		if got := formatCell(v); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestRunnerParamsExposed(t *testing.T) {
	p := Params{Warmup: 1, Measure: 2, Seed: 3, SampleEvery: 4}
	if got := NewRunner(p).Params(); got != p {
		t.Errorf("Params() = %+v, want %+v", got, p)
	}
}
