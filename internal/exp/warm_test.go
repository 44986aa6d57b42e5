package exp

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestWarmSharedMatchesCold is the warm-state fork acceptance property: a
// grid run through the shared-warmup fast path must be bit-identical to the
// same grid with sharing disabled (every cell warming its own machine).
func TestWarmSharedMatchesCold(t *testing.T) {
	var ws []trace.Workload
	for _, name := range []string{"cc", "canneal"} {
		w, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	// Every WarmupKey pair from the paper grid: plain + accuracy-graded
	// predictors, and baseline + characterization (which keeps the key
	// but runs cold, its machine tracking entry times).
	shared := []Setup{
		Baseline(), characterizationSetup(),
		DPPredSetup(), withAccuracy(DPPredSetup()),
		DPPredCBPredSetup(), withAccuracy(DPPredCBPredSetup()),
		SHiPTLBSetup(), withAccuracy(SHiPTLBSetup()),
		SHiPLLCSetup(), withAccuracy(SHiPLLCSetup()),
	}
	cold := make([]Setup, len(shared))
	for i, su := range shared {
		su.WarmupKey = ""
		cold[i] = su
	}

	collect := func(setups []Setup) map[string]sim.Result {
		r := NewRunner(Params{Warmup: 15_000, Measure: 45_000, Seed: 7, SampleEvery: 5_000})
		r.SetJobs(4)
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

	want := collect(cold)
	got := collect(shared)
	for key, w := range want {
		if g := got[key]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: warm-shared result diverged from cold:\n  shared=%+v\n  cold=%+v", key, g, w)
		}
	}
}

// TestTraceDirWarmForks: under SetTraceDir a warm master with two
// consumers resumes each of them from a fork of its StreamReader, so the
// streamed grid forks every consumer the in-memory grid forks, falls back
// to cold for none, and gives the same Results.
func TestTraceDirWarmForks(t *testing.T) {
	ws := []trace.Workload{workload(t, "cc"), workload(t, "canneal")}
	setups := []Setup{DPPredSetup(), withAccuracy(DPPredSetup()), SHiPLLCSetup(), withAccuracy(SHiPLLCSetup())}
	grid := func(r *Runner) map[string]sim.Result {
		r.SetJobs(2)
		held := trackPlans(r)
		if err := r.RunGrid(ws, setups); err != nil {
			t.Fatal(err)
		}
		if forked, cold := r.WarmForks(); forked != int64(len(ws)*len(setups)) || cold != 0 {
			t.Errorf("WarmForks = %d forked, %d cold; want %d and 0", forked, cold, len(ws)*len(setups))
		}
		if h := held(); len(h) > 0 {
			t.Errorf("nodes still held: %v", h)
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
	// A warmup that ends mid-chunk, so each fork re-decodes a partly read
	// chunk.
	p := Params{Warmup: 15_000, Measure: 45_000, Seed: 7, SampleEvery: 5_000}
	want := grid(NewRunner(p))
	streamed := NewRunner(p)
	streamed.SetTraceDir(t.TempDir())
	if got := grid(streamed); !reflect.DeepEqual(got, want) {
		for cell, res := range want {
			if !reflect.DeepEqual(got[cell], res) {
				t.Errorf("%s: streamed result diverged from in-memory:\n  got  %+v\n  want %+v", cell, got[cell], res)
			}
		}
	}
}

// trackPlans records every plan r runs from now on and returns a func
// listing the cells whose node still holds an edge or a value (a master's
// machine, a pass's record, a workload's trace). Once every grid and Run
// has returned there must be none: nothing a grid shares outlives it.
func trackPlans(r *Runner) (held func() []string) {
	var mu sync.Mutex
	var plans []*gridPlan
	r.onPlan = func(p *gridPlan) {
		mu.Lock()
		defer mu.Unlock()
		plans = append(plans, p)
	}
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		var out []string
		for _, p := range plans {
			for kind, edges := range map[string]map[string]*edge{"": p.edges, " trace": p.traces} {
				for cell, e := range edges {
					e.mu.Lock()
					n, holds := e.edges, e.val != nil
					e.mu.Unlock()
					if n != 0 || holds {
						out = append(out, fmt.Sprintf("%s%s (%d edges, value held %v)", cell, kind, n, holds))
					}
				}
			}
		}
		sort.Strings(out)
		return out
	}
}

// unforkableTLB hides its predictor's Clone, so sim.System.Fork refuses a
// machine that carries it.
type unforkableTLB struct{ pred.TLBPredictor }

// TestWarmCountedLifetimes: a grid counts each warm master's consumers
// before it launches, so every consumer forks (none falls back to cold) and
// the last one releases the master; a later lone Run of the same key is a
// plan of its own, whose lone consumer runs cold, and still matches; a
// consumer whose Fork is refused still drops its edge, so its master is
// released too.
func TestWarmCountedLifetimes(t *testing.T) {
	var ws []trace.Workload
	for _, name := range []string{"cc", "canneal"} {
		w, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	third := DPPredSetup()
	third.Name = "dpPred-third" // distinct memo key, same warmup key
	fourth := DPPredSetup()
	fourth.Name = "dpPred-fourth"
	grid := []Setup{DPPredSetup(), withAccuracy(DPPredSetup()), third}

	dp := DPPredSetup()
	refused := Setup{Name: "refused", WarmupKey: "refused", TLB: func(s *sim.System) (pred.TLBPredictor, error) {
		p, err := dp.TLB(s)
		return unforkableTLB{p}, err
	}}
	refusedTwin := withAccuracy(refused)

	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			r := NewRunner(Params{Warmup: 10_000, Measure: 30_000, Seed: 3, SampleEvery: 5_000})
			r.SetJobs(jobs)
			heldMasters := trackPlans(r)
			if err := r.RunGrid(ws, grid); err != nil {
				t.Fatal(err)
			}
			if forked, cold := r.WarmForks(); forked != int64(3*len(ws)) || cold != 0 {
				t.Errorf("grid WarmForks = %d forked, %d cold; want %d and 0", forked, cold, 3*len(ws))
			}
			if held := heldMasters(); len(held) > 0 {
				t.Errorf("masters still hold a machine after the grid: %v", held)
			}

			w := ws[0]
			got, err := r.Run(w, fourth)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.Run(w, DPPredSetup())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("lone Run after the grid diverged:\n  fourth=%+v\n  first=%+v", got, want)
			}
			if forked, cold := r.WarmForks(); forked != int64(3*len(ws)) || cold != 0 {
				t.Errorf("after a lone Run, WarmForks = %d forked, %d cold; want %d and 0", forked, cold, 3*len(ws))
			}

			if err := r.RunGrid(ws, []Setup{refused, refusedTwin}); err != nil {
				t.Fatal(err)
			}
			if forked, cold := r.WarmForks(); forked != int64(3*len(ws)) || cold != int64(2*len(ws)) {
				t.Errorf("after refused forks, WarmForks = %d forked, %d cold; want %d and %d", forked, cold, 3*len(ws), 2*len(ws))
			}
			if held := heldMasters(); len(held) > 0 {
				t.Errorf("masters still hold a machine after refused forks: %v", held)
			}
		})
	}
}

// TestTable4ReleasesMasters: each warm-path cell of Table IV is the only
// one of its WarmupKey, so Table IV plans no master and forks nothing, and
// once it returns on a fresh runner no node may still hold anything.
func TestTable4ReleasesMasters(t *testing.T) {
	r := NewRunner(Params{Warmup: 5_000, Measure: 10_000, Seed: 1, SampleEvery: 5_000})
	held := trackPlans(r)
	track, masters := r.onPlan, 0
	r.onPlan = func(p *gridPlan) {
		track(p)
		for _, e := range p.edges {
			if !e.pass {
				masters++
			}
		}
	}
	if _, err := Table4(r); err != nil {
		t.Fatal(err)
	}
	if h := held(); len(h) > 0 {
		t.Errorf("%d nodes still hold something after Table4: %v", len(h), h)
	}
	if masters != 0 {
		t.Errorf("Table4 planned %d warm-master edges, want none", masters)
	}
	if forked, cold := r.WarmForks(); forked != 0 || cold != 0 {
		t.Errorf("Table4 WarmForks = %d forked, %d cold; want 0 and 0", forked, cold)
	}
}
