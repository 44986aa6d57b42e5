package exp

import (
	"reflect"
	"testing"

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
	// predictors, and baseline + characterization.
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

// TestWarmBudgetExhaustion: a third consumer of the same warmup key must
// fall back to the cold path (the master is released after the fork budget),
// count as a cold fallback, and still produce the identical result.
func TestWarmBudgetExhaustion(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Params{Warmup: 10_000, Measure: 30_000, Seed: 3, SampleEvery: 5_000})
	r.SetJobs(1)

	base := DPPredSetup()
	acc := withAccuracy(DPPredSetup())
	third := DPPredSetup()
	third.Name = "dpPred-third" // distinct memo key, same warmup key

	res := make(map[string]sim.Result)
	for _, su := range []Setup{base, acc, third} {
		got, err := r.Run(w, su)
		if err != nil {
			t.Fatal(err)
		}
		res[su.Name] = got
	}
	if !reflect.DeepEqual(res["dpPred-third"], res["dpPred"]) {
		t.Errorf("post-budget cold fallback diverged:\n  third=%+v\n  first=%+v",
			res["dpPred-third"], res["dpPred"])
	}
	if forked, cold := r.WarmForks(); forked != 2 || cold != 1 {
		t.Errorf("WarmForks = %d forked, %d cold; want 2 and 1", forked, cold)
	}
}
