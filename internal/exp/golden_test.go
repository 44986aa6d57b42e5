package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// update regenerates the golden snapshots instead of diffing against them:
//
//	go test ./internal/exp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// goldenSetups are the Table IV configurations snapshotted under
// testdata/golden: one JSON file per setup, mapping workload name to the
// full QuickParams sim.Result. They cover the baseline machine, all three
// TLB-side predictors, the iso-storage control and the two-pass oracle, so
// any refactor that drifts a single metric anywhere in the stack (TLB,
// walker, caches, predictors, timing core) fails with a field-level diff.
func goldenSetups() []Setup {
	return []Setup{
		Baseline(),
		AIPTLBSetup(),
		SHiPTLBSetup(),
		DPPredSetup(),
		IsoStorageSetup(),
		OracleSetup(),
	}
}

// goldenPath maps a setup name to its snapshot file ("dpPred" →
// testdata/golden/dpPred.json; "+" is filename-safe everywhere Go runs).
func goldenPath(setup string) string {
	return filepath.Join("testdata", "golden", setup+".json")
}

// TestGoldenTableIVResults diffs every (workload, Table IV setup) QuickParams
// result against the committed snapshots. It shares quickRunner with the rest
// of the package, so the grid simulates only once per test invocation; run
// with -update after an intentional modelling change and commit the diff.
func TestGoldenTableIVResults(t *testing.T) {
	quickGrid(t)
	workloads := trace.Workloads()
	setups := goldenSetups()
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

// diffResults reports every drifted metric by name, so a regression reads
// as "dpPred/cc: LLTMPKI = 4.8123 (golden 4.8019)" rather than an opaque
// struct dump.
func diffResults(t *testing.T, setup, workload string, got, want sim.Result) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	gm, wm := resultFields(t, got), resultFields(t, want)
	names := make([]string, 0, len(gm))
	for n := range gm {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if gm[n] != wm[n] {
			t.Errorf("%s/%s: %s = %s (golden %s)", setup, workload, n, gm[n], wm[n])
		}
	}
}

// resultFields flattens a Result into "field" → rendered-value via its JSON
// form (nested instrumentation structs become dotted paths).
func resultFields(t *testing.T, r sim.Result) map[string]string {
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

func flattenJSON(prefix string, v any, out map[string]string) {
	switch vv := v.(type) {
	case map[string]any:
		for k, sub := range vv {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flattenJSON(key, sub, out)
		}
	case []any:
		for i, sub := range vv {
			flattenJSON(fmt.Sprintf("%s[%d]", prefix, i), sub, out)
		}
	default:
		out[prefix] = fmt.Sprintf("%v", vv)
	}
}

// writeGolden marshals the snapshot with sorted workload keys (Go maps
// marshal sorted) and a trailing newline, so regenerated files diff cleanly.
func writeGolden(path string, results map[string]sim.Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
