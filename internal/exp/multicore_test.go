package exp

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// multiTestParams keeps the jobs-invariance test fast; the golden snapshot
// below runs the real QuickParams grid.
func multiTestParams() Params {
	return Params{Warmup: 40_000, Measure: 80_000, Seed: 1, SampleEvery: 10_000}
}

// TestMultiCoreSweepJobsInvariant renders a reduced sweep sequentially and
// with an oversized worker pool: the formatted table must be byte-identical,
// the same contract the single-machine grids pin in their own tests.
func TestMultiCoreSweepJobsInvariant(t *testing.T) {
	render := func(jobs int) string {
		r := NewRunner(multiTestParams())
		r.SetJobs(jobs)
		s, err := multiCoreSweep(r, []int{1, 2}, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return s.Format()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("sweep output depends on job count:\n-- jobs=1 --\n%s\n-- jobs=8 --\n%s", seq, par)
	}
}

// TestMultiCoreSweepShape pins the grid layout: 3×3 topologies as rows, the
// four quality columns, and a populated 1c×1t row (accuracy grading must
// have seen predictions even on the degenerate single-machine topology).
func TestMultiCoreSweepShape(t *testing.T) {
	r := NewRunner(multiTestParams())
	s, err := multiCoreSweep(r, []int{1, 2}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 6 || len(s.Cols) != 4 {
		t.Fatalf("grid is %dx%d, want 6x4", len(s.Rows), len(s.Cols))
	}
	if s.Rows[0].Name != "1c×1t" || s.Rows[5].Name != "2c×4t" {
		t.Errorf("row order %q..%q, want 1c×1t..2c×4t", s.Rows[0].Name, s.Rows[5].Name)
	}
	if acc := s.Rows[0].Values[0]; acc <= 0 || acc > 100 {
		t.Errorf("1c×1t dpPred accuracy = %.1f%%, want in (0, 100]", acc)
	}
	if ipc := s.Rows[0].Values[3]; ipc <= 0 {
		t.Errorf("1c×1t IPC = %.4f, want > 0", ipc)
	}
}

// goldenMultiCell is the layout testdata/golden/multicore.json records for
// one sweep cell: the cell's Result with the machine-level fields first
// recorded, in their recorded order, and every core's Result in PerCore —
// a one-core cell's own Result included.
type goldenMultiCell struct {
	PerCore          []sim.Result
	Accesses         uint64
	Switches         uint64
	Shootdowns       uint64
	ShootdownFlushed uint64
	Unmaps           uint64
	Instructions     uint64
	Cycles           float64
	IPC              float64
	Walks            uint64
	LLTMPKI          float64
	LLCMPKI          float64
	LLTAccuracy      stats.AccuracyResult
	LLCAccuracy      stats.AccuracyResult
	LLTConfusion     stats.Confusion
	LLCConfusion     stats.Confusion
}

// goldenCell rearranges a sweep cell's Result into the snapshot layout.
func goldenCell(r sim.Result) goldenMultiCell {
	per := r.PerCore
	if len(per) == 0 {
		core := r
		core.Switches, core.Shootdowns, core.ShootdownFlushed, core.Unmaps = 0, 0, 0, 0
		core.LLTConfusion, core.LLCConfusion = nil, nil
		per = []sim.Result{core}
	}
	g := goldenMultiCell{
		PerCore: per, Accesses: r.MemAccesses,
		Switches: r.Switches, Shootdowns: r.Shootdowns, ShootdownFlushed: r.ShootdownFlushed, Unmaps: r.Unmaps,
		Instructions: r.Instructions, Cycles: r.Cycles, IPC: r.IPC,
		Walks: r.Walks, LLTMPKI: r.LLTMPKI, LLCMPKI: r.LLCMPKI,
		LLTAccuracy: r.LLTAccuracy, LLCAccuracy: r.LLCAccuracy,
	}
	if r.LLTConfusion != nil {
		g.LLTConfusion, g.LLCConfusion = *r.LLTConfusion, *r.LLCConfusion
	}
	return g
}

// multiResultFields flattens a golden cell for field-level diffs, the
// multi-machine analogue of resultFields.
func multiResultFields(t *testing.T, r goldenMultiCell) map[string]string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	flattenJSON("", tree, out)
	return out
}

// TestGoldenMultiCoreSweep diffs the full QuickParams cores×tenants grid,
// run as one grid of the package's shared runner, against
// testdata/golden/multicore.json. Any drift in the multi-machine
// composition — scheduling order, ASID tagging, shootdown broadcast,
// shared-structure contention — fails with a per-field diff; regenerate
// with -update after an intentional modelling change.
func TestGoldenMultiCoreSweep(t *testing.T) {
	paperGrid(t)
	w, err := trace.ByName("cactusADM")
	if err != nil {
		t.Fatal(err)
	}
	setups := multiCoreSetups(multiCoreDims, multiCoreDims)
	if err := quickRunner.RunGrid([]trace.Workload{w}, setups); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]goldenMultiCell)
	for _, su := range setups {
		res, err := quickRunner.Run(w, su)
		if err != nil {
			t.Fatal(err)
		}
		got[su.Name] = goldenCell(res)
	}

	path := goldenPath("multicore")
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (run `go test ./internal/exp -run TestGoldenMultiCore -update` to create it): %v", path, err)
	}
	var want map[string]goldenMultiCell
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s: snapshot has %d cells, sweep has %d", path, len(want), len(got))
	}
	for name, g := range got {
		gm, wm := multiResultFields(t, g), multiResultFields(t, want[name])
		for _, n := range sortedKeys(gm) {
			if gm[n] != wm[n] {
				t.Errorf("%s: %s = %s (golden %s)", name, n, gm[n], wm[n])
			}
		}
	}
}

// sortedKeys returns the map's keys in sorted order for stable diff output.
func sortedKeys(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
