package exp

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

// arenaGoldenSetups are the registry newcomers snapshotted alongside the
// paper's own Table IV configurations: the sampler-based competitor, the
// reuse-variability competitor and a set-dueling tournament. Together with
// goldenSetups they pin the full sweep paperexp -predictors runs.
func arenaGoldenSetups() []Setup {
	return []Setup{
		mustSetup("SDBP-TLB"),
		mustSetup("Leeway-TLB"),
		mustSetup("duel(dpPred,SDBP)"),
	}
}

// TestGoldenArenaResults diffs the arena competitors' QuickParams results
// against committed snapshots, exactly like TestGoldenTableIVResults does
// for the paper's configurations; regenerate with -update.
func TestGoldenArenaResults(t *testing.T) {
	quickGrid(t)
	workloads := trace.Workloads()
	setups := arenaGoldenSetups()
	if err := quickRunner.RunGrid(workloads, setups); err != nil {
		t.Fatal(err)
	}

	for _, su := range setups {
		got := make(map[string]sim.Result, len(workloads))
		for _, w := range workloads {
			res, err := quickRunner.Run(w, su)
			if err != nil {
				t.Fatal(err)
			}
			got[w.Name] = res
		}

		path := goldenPath(su.Name)
		if *update {
			if err := writeGolden(path, got); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden snapshot %s (run `go test ./internal/exp -run TestGolden -update` to create it): %v", path, err)
		}
		var want map[string]sim.Result
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, w := range workloads {
			diffResults(t, su.Name, w.Name, got[w.Name], want[w.Name])
		}
		if len(want) != len(workloads) {
			t.Errorf("%s: snapshot has %d workloads, grid has %d", path, len(want), len(workloads))
		}
	}
}

// TestParallelArenaSweep extends the jobs=1 ≡ jobs=8 guarantee to a
// registry sweep: every registered TLB-side predictor (the -predictors all
// grid) must produce bit-identical results whatever the worker count.
func TestParallelArenaSweep(t *testing.T) {
	setups, err := setupsFor(pred.TLBNames())
	if err != nil {
		t.Fatal(err)
	}
	setups = append([]Setup{Baseline()}, setups...)
	var ws []trace.Workload
	for _, name := range []string{"cc", "canneal"} {
		w, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}

	collect := func(jobs int) map[string]sim.Result {
		r := NewRunner(parallelTestParams)
		r.SetJobs(jobs)
		if err := r.RunGrid(ws, setups); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]sim.Result)
		for _, w := range ws {
			for _, su := range setups {
				res, err := r.Run(w, su)
				if err != nil {
					t.Fatal(err)
				}
				out[w.Name+"/"+su.Name] = res
			}
		}
		return out
	}

	seq := collect(1)
	par := collect(8)
	if len(seq) != len(par) {
		t.Fatalf("result maps differ in size: sequential %d, parallel %d", len(seq), len(par))
	}
	for key, want := range seq {
		if got := par[key]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parallel result diverged from sequential:\n  jobs=8: %+v\n  jobs=1: %+v", key, got, want)
		}
	}
}

// TestTable4ExtendedShape runs the arena sweep on a short grid and checks
// the series layout: one column per registered TLB predictor (the default
// sweep), the mean summary row, and the two storage-normalization footers
// with strictly positive budgets.
func TestTable4ExtendedShape(t *testing.T) {
	r := NewRunner(parallelTestParams)
	s, err := Table4Extended(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := pred.TLBNames()
	if len(s.Cols) != len(names) {
		t.Fatalf("sweep has %d columns, registry has %d TLB predictors", len(s.Cols), len(names))
	}
	for i, n := range names {
		if s.Cols[i] != n {
			t.Errorf("column %d = %q, want registry order %q", i, s.Cols[i], n)
		}
	}
	if len(s.Rows) != len(trace.Workloads()) {
		t.Errorf("sweep has %d rows, want one per workload (%d)", len(s.Rows), len(trace.Workloads()))
	}
	if s.SummaryLabel != "mean" || len(s.Summary) != len(s.Cols) {
		t.Errorf("summary row %q with %d cells, want \"mean\" with %d", s.SummaryLabel, len(s.Summary), len(s.Cols))
	}
	if len(s.Footers) != 2 {
		t.Fatalf("sweep has %d footers, want storage (KB) and mean %%/KB", len(s.Footers))
	}
	for i, kb := range s.Footers[0].Values {
		if kb <= 0 {
			t.Errorf("%s: storage footer is %.3f KB, want > 0", s.Cols[i], kb)
		}
	}
	out := s.Format()
	for _, frag := range []string{"Table IV+", "storage (KB)", "mean %/KB"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted sweep missing %q:\n%s", frag, out)
		}
	}
}

// TestTable4ExtendedUnknownName surfaces the registry's unknown-name error
// (with the registered set) through the sweep entry point, which is what
// paperexp -predictors prints on a typo.
func TestTable4ExtendedUnknownName(t *testing.T) {
	r := NewRunner(parallelTestParams)
	_, err := Table4Extended(r, []string{"SDBP-TLB", "bogus"})
	if err == nil {
		t.Fatal("sweep accepted an unregistered predictor name")
	}
	for _, frag := range []string{`unknown predictor "bogus"`, "registered:"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

// setupsFor resolves a list of names; any unknown name fails the whole
// list.
func setupsFor(names []string) ([]Setup, error) {
	setups := make([]Setup, len(names))
	for i, n := range names {
		s, err := SetupFor(n)
		if err != nil {
			return nil, err
		}
		setups[i] = s
	}
	return setups, nil
}
