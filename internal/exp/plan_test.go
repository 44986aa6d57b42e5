package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestUnionGrid: the experiments' grids concatenated plan as their union,
// each setup once in first-seen order; running that union first shares
// every oracle record pass with Figure 9's baseline, forks every warm
// consumer (Table VI's dpPred+acc shares Figure 9's dpPred master), and
// leaves each experiment's output identical to running it alone on a fresh
// runner.
func TestUnionGrid(t *testing.T) {
	p := Params{Warmup: 3_000, Measure: 6_000, Seed: 2, SampleEvery: 3_000}
	exps := []Experiment{experiment(t, "fig9"), experiment(t, "tab4"), experiment(t, "tab6")}
	var union []Setup
	for _, e := range exps {
		union = append(union, e.Grid()...)
	}

	r := NewRunner(p)
	r.SetJobs(2)
	heldMasters := trackPlans(r)
	var names []string
	track := r.onPlan
	r.onPlan = func(pl *gridPlan) {
		track(pl)
		for _, su := range pl.setups {
			names = append(names, su.Name)
		}
	}
	ws := trace.Workloads()
	if err := r.RunGrid(ws, union); err != nil {
		t.Fatal(err)
	}
	r.onPlan = track
	want := []string{"baseline", "AIP-TLB", "SHiP-TLB", "dpPred", "iso-storage", "oracle",
		"dpPred+acc", "dpPred-SH+acc", "SHiP-TLB+acc"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("planned setups %v, want %v", names, want)
	}
	if shared, alone := r.RecordPasses(); shared != int64(len(ws)) || alone != 0 {
		t.Errorf("RecordPasses = %d shared, %d alone; want %d and 0", shared, alone, len(ws))
	}
	if _, cold := r.WarmForks(); cold != 0 {
		t.Errorf("%d warm consumers fell back to cold, want 0", cold)
	}
	if held := heldMasters(); len(held) > 0 {
		t.Errorf("masters still hold a machine after the union grid: %v", held)
	}
	for _, e := range exps {
		got, err := e.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := e.Run(NewRunner(p))
		if err != nil {
			t.Fatal(err)
		}
		if got.Format() != alone.Format() {
			t.Errorf("%s after the union grid differs from a lone run:\n%s\nvs\n%s", got.ID, got.Format(), alone.Format())
		}
	}
}

// TestOverlappingGridsOnOneRunner: grids and a lone Run racing on one
// runner share cells through the results memo while each plans its own
// nodes, so a node's consumer may be led by another grid. That must never
// hang the node's other consumer. Every call finishes, every cell matches a
// fresh runner's, each oracle cell gets exactly one record pass, and no
// node holds anything afterwards. The "led" cases force the order: grid B
// pairs its baseline and oracle cells, then grid A's baseline (or oracle)
// cells start before B's. B's oracle then runs a pass no baseline cell
// takes (or B's baseline, its pass abandoned, runs the plain machine), and
// that pass counts as alone.
func TestOverlappingGridsOnOneRunner(t *testing.T) {
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "mcf")}
	full := []Setup{Baseline(), OracleSetup(), DPPredSetup(), withAccuracy(DPPredSetup())}
	ref := NewRunner(pairTestParams)
	if err := ref.RunGrid(ws, full); err != nil {
		t.Fatal(err)
	}
	// led runs grid B after grid A's first cells have started.
	led := func(first Setup) func(r *Runner) []func() error {
		return func(r *Runner) []func() error {
			// Sized to every cell's span, so a callback never blocks.
			started := make(chan struct{}, len(ws)*(1+len(full)))
			r.ProgressStart = func(string, string) { started <- struct{}{} }
			aErr := make(chan error, 1)
			track := r.onPlan
			r.onPlan = func(p *gridPlan) {
				track(p)
				if len(p.setups) == len(full) { // grid B, planned and paired
					go func() { aErr <- r.RunGrid(ws, []Setup{first}) }()
					for range ws {
						<-started // grid A's cells lead
					}
				}
			}
			return []func() error{
				func() error { return r.RunGrid(ws, full) },
				func() error { return <-aErr },
			}
		}
	}
	cases := []struct {
		name string
		run  func(r *Runner) []func() error
	}{
		{"raced", func(r *Runner) []func() error {
			return []func() error{
				func() error { return r.RunGrid(ws, []Setup{Baseline()}) },
				func() error { return r.RunGrid(ws, full) },
				func() error {
					_, err := r.Run(ws[0], withAccuracy(DPPredSetup()))
					return err
				},
			}
		}},
		{"baseline led", led(Baseline())},
		{"oracle led", led(OracleSetup())},
	}
	for _, c := range cases {
		for _, jobs := range []int{2, 4} {
			r := NewRunner(pairTestParams)
			r.SetJobs(jobs)
			held := trackPlans(r)
			calls := c.run(r)
			errs := make(chan error, len(calls))
			for _, call := range calls {
				go func(call func() error) { errs <- call() }(call)
			}
			deadline := time.After(2 * time.Minute)
			for range calls {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatalf("%s, jobs=%d: %v", c.name, jobs, err)
					}
				case <-deadline:
					t.Fatalf("%s, jobs=%d: overlapping grids did not finish", c.name, jobs)
				}
			}
			for _, w := range ws {
				for _, su := range full {
					want, err := ref.Run(w, su)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := r.Run(w, su); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("%s, jobs=%d: %s/%s differs from a fresh runner's (err %v)", c.name, jobs, w.Name, su.Name, err)
					}
				}
			}
			shared, alone := r.RecordPasses()
			if shared+alone != int64(len(ws)) || c.name != "raced" && alone != int64(len(ws)) {
				t.Errorf("%s, jobs=%d: %d shared and %d lone record passes for %d oracle cells", c.name, jobs, shared, alone, len(ws))
			}
			if h := held(); len(h) > 0 {
				t.Errorf("%s, jobs=%d: nodes still held: %v", c.name, jobs, h)
			}
		}
	}
}

// TestPlanExecutorMatchesColdReference is a seeded property test of the
// plan executor against the obvious model: every cell run alone on a fresh
// runner with its WarmupKey cleared. Each iteration runs a random subset of
// setups over two workloads on one runner, after memoizing a random subset
// of those cells, at jobs 1 or 3, and sometimes cancels the grid at its
// k-th span and runs it again. Every cell must match the reference, no node
// may hold anything afterwards, and the last grid's counters must account
// for the cells it computed: forked + cold for the consumers of its warm
// masters, shared + alone for its oracle cells.
func TestPlanExecutorMatchesColdReference(t *testing.T) {
	p := Params{Warmup: 3_000, Measure: 6_000, Seed: 5, SampleEvery: 3_000}
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "canneal")}
	all := []Setup{Baseline(), OracleSetup(), IsoStorageSetup(), DPPredSetup(),
		withAccuracy(DPPredSetup()), SHiPTLBSetup(), characterizationSetup()}
	ref := map[string]sim.Result{}
	for _, w := range ws {
		for _, su := range all {
			cold := su
			cold.WarmupKey = ""
			res, err := NewRunner(p).Run(w, cold)
			if err != nil {
				t.Fatal(err)
			}
			ref[w.Name+"/"+su.Name] = res
		}
	}

	rng := rand.New(rand.NewSource(1))
	reruns := 0
	for it := 0; it < 24; it++ {
		var setups []Setup
		for _, su := range all {
			if rng.Intn(2) == 0 {
				setups = append(setups, su)
			}
		}
		jobs := []int{1, 3}[rng.Intn(2)]
		cancelAt := 0 // cancel at the k-th span; 0 = never
		if rng.Intn(2) == 0 {
			cancelAt = 1 + rng.Intn(len(ws)*len(setups)+1)
		}
		r := NewRunner(p)
		r.SetJobs(jobs)
		held := trackPlans(r)
		track, consumers := r.onPlan, 0
		r.onPlan = func(p *gridPlan) {
			track(p)
			consumers = 0
			for _, e := range p.edges {
				if !e.pass {
					consumers++
				}
			}
		}
		for _, w := range ws {
			for _, su := range setups {
				if rng.Intn(4) == 0 {
					if _, err := r.Run(w, su); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		desc := fmt.Sprintf("iteration %d (jobs %d, cancel at span %d, setups %d)", it, jobs, cancelAt, len(setups))

		// grid runs the grid once, counting its computed cells by setup
		// name and snapshotting the counters before it starts.
		var mu sync.Mutex
		var spans map[string]int
		var forked0, cold0, shared0, alone0 int64
		grid := func(ctx context.Context) error {
			mu.Lock()
			spans = map[string]int{}
			mu.Unlock()
			forked0, cold0 = r.WarmForks()
			shared0, alone0 = r.RecordPasses()
			return r.RunGridContext(ctx, ws, setups)
		}
		ctx, cancel := context.WithCancel(context.Background())
		r.ProgressStart = func(_, s string) {
			mu.Lock()
			defer mu.Unlock()
			spans[s]++
			if cancelAt--; cancelAt == 0 {
				cancel()
			}
		}
		err := grid(ctx)
		cancel()
		if errors.Is(err, context.Canceled) {
			reruns++
			err = grid(context.Background())
		}
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}

		forked, cold := r.WarmForks()
		shared, alone := r.RecordPasses()
		if got := forked + cold - forked0 - cold0; got != int64(consumers) {
			t.Errorf("%s: %d forked + cold, want %d master consumers", desc, got, consumers)
		}
		if got, want := shared+alone-shared0-alone0, int64(spans["oracle"]); got != want {
			t.Errorf("%s: %d shared + alone record passes, want %d oracle cells", desc, got, want)
		}
		for _, w := range ws {
			for _, su := range setups {
				got, err := r.Run(w, su)
				if err != nil || !reflect.DeepEqual(got, ref[w.Name+"/"+su.Name]) {
					t.Errorf("%s: %s/%s differs from the cold reference (err %v)", desc, w.Name, su.Name, err)
				}
			}
		}
		if h := held(); len(h) > 0 {
			t.Errorf("%s: nodes still held: %v", desc, h)
		}
	}
	if reruns == 0 {
		t.Error("no iteration was canceled and re-run")
	}
}
