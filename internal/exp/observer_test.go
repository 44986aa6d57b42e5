package exp

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestRunnerObserver checks the runner announces each run to the observer
// and that one bundle accumulates labeled series across setups.
func TestRunnerObserver(t *testing.T) {
	r := NewRunner(Params{Warmup: 20_000, Measure: 60_000, Seed: 1, SampleEvery: 5_000})
	o := &obs.Observer{
		Tracer:   obs.NewTracer(obs.NullSink{}),
		Metrics:  obs.NewRegistry(),
		Interval: obs.NewIntervalRecorder(10_000),
	}
	r.Observer = o

	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(w, Baseline()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(w, DPPredSetup()); err != nil {
		t.Fatal(err)
	}

	if o.Tracer.Count() == 0 {
		t.Fatal("no events traced")
	}
	runs := map[string]bool{}
	for _, s := range o.Interval.Samples() {
		runs[s.Run] = true
	}
	if !runs["cc/baseline"] || !runs["cc/dpPred"] {
		t.Fatalf("interval samples missing run labels: %v", runs)
	}
	snap := o.Metrics.Snapshot()
	var sawBaseline, sawDPPred bool
	for name := range snap {
		if strings.HasPrefix(name, "cc/baseline/") {
			sawBaseline = true
		}
		if strings.HasPrefix(name, "cc/dpPred/dppred.") {
			sawDPPred = true
		}
	}
	if !sawBaseline || !sawDPPred {
		t.Fatalf("metrics missing per-run scopes (baseline=%v dppred=%v)", sawBaseline, sawDPPred)
	}
}
