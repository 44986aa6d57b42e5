package exp

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestPlanGridUnion: planning simulates nothing and returns the union of
// the experiments' grids; running that union first shares every oracle
// record pass with Figure 9's baseline, forks every warm consumer (Table
// VI's dpPred+acc shares Figure 9's dpPred master), and leaves each
// experiment's output identical to running it alone on a fresh runner.
func TestPlanGridUnion(t *testing.T) {
	p := Params{Warmup: 3_000, Measure: 6_000, Seed: 2, SampleEvery: 3_000}
	fns := []func(*Runner) (Series, error){Figure9, Table4, Table6}
	ws, setups, err := PlanGrid(p, fns...)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, su := range setups {
		names = append(names, su.Name)
	}
	want := []string{"baseline", "AIP-TLB", "SHiP-TLB", "dpPred", "iso-storage", "oracle",
		"dpPred+acc", "dpPred-SH+acc", "SHiP-TLB+acc"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("planned setups %v, want %v", names, want)
	}

	r := NewRunner(p)
	r.SetJobs(2)
	if err := r.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}
	if shared, alone := r.RecordPasses(); shared != int64(len(ws)) || alone != 0 {
		t.Errorf("RecordPasses = %d shared, %d alone; want %d and 0", shared, alone, len(ws))
	}
	if _, cold := r.WarmForks(); cold != 0 {
		t.Errorf("%d warm consumers fell back to cold, want 0", cold)
	}
	if held := heldMasters(r); len(held) > 0 {
		t.Errorf("masters still hold a machine after the union grid: %v", held)
	}
	for _, fn := range fns {
		got, err := fn(r)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := fn(NewRunner(p))
		if err != nil {
			t.Fatal(err)
		}
		if got.Format() != alone.Format() {
			t.Errorf("%s after the union grid differs from a lone run:\n%s\nvs\n%s", got.ID, got.Format(), alone.Format())
		}
	}
}

// TestPlanGridErrors: a planning runner's Run returns ErrPlanned, and an
// experiment that returns without planning a grid fails the plan.
func TestPlanGridErrors(t *testing.T) {
	p := Params{Warmup: 1, Measure: 1, Seed: 1}
	_, _, err := PlanGrid(p, func(r *Runner) (Series, error) {
		_, err := r.Run(trace.Workloads()[0], Baseline())
		if !errors.Is(err, ErrPlanned) {
			t.Errorf("planning Run returned %v, want ErrPlanned", err)
		}
		return Series{}, nil
	})
	if err == nil {
		t.Error("an experiment that planned no grid did not fail the plan")
	}
}
