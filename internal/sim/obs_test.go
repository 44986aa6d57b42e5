package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// obsTestMix is a small two-stream workload whose footprint the machine
// fully warms, so steady-state stepping allocates nothing.
func obsTestMix(t testing.TB, seed uint64) trace.Generator {
	t.Helper()
	g, err := trace.NewMix(trace.MixSpec{
		Name:   "obs-mix",
		GapMin: 2, GapMax: 6,
		Streams: []trace.StreamSpec{
			{Label: "seq", PC: 0x400000, Pattern: trace.Sequential, Base: arch.VAddr(1 << 30), Size: 1 << 22, Weight: 3},
			{Label: "rand", PC: 0x410000, Pattern: trace.Random, Base: arch.VAddr(2 << 30), Size: 1 << 22, Weight: 1},
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runObsSystem(t testing.TB, o *obs.Observer) Result {
	t.Helper()
	cfg := DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attachPaper(s); err != nil {
		t.Fatal(err)
	}
	s.AttachObserver(o)
	g := obsTestMix(t, 7)
	if err := s.Run(g, 60_000); err != nil {
		t.Fatal(err)
	}
	s.StartMeasurement()
	if err := s.Run(g, 120_000); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	return s.Result()
}

// TestObserverDoesNotPerturbResult proves enabling tracing, interval
// sampling and metrics changes nothing about the simulation: a fixed-seed
// run with full observability yields a byte-identical Result to a run
// without it.
func TestObserverDoesNotPerturbResult(t *testing.T) {
	plain := runObsSystem(t, nil)
	o := &obs.Observer{
		Tracer:   obs.NewTracer(obs.NullSink{}),
		Metrics:  obs.NewRegistry(),
		Interval: obs.NewIntervalRecorder(10_000),
	}
	observed := runObsSystem(t, o)

	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observability changed the result:\nplain    %+v\nobserved %+v", plain, observed)
	}
	if a, b := fmt.Sprintf("%+v", plain), fmt.Sprintf("%+v", observed); a != b {
		t.Fatalf("results not byte-identical:\n%s\n%s", a, b)
	}
	if o.Tracer.Count() == 0 {
		t.Fatal("tracer saw no events")
	}
	if len(o.Interval.Samples()) == 0 {
		t.Fatal("interval recorder collected no samples")
	}
}

// TestObserverEventAndSampleContents checks the hook points actually fire
// and the interval series carries the learning-curve signals.
func TestObserverEventAndSampleContents(t *testing.T) {
	kinds := kindCounter{}
	o := &obs.Observer{
		Tracer:   obs.NewTracer(kinds),
		Metrics:  obs.NewRegistry(),
		Interval: obs.NewIntervalRecorder(10_000),
	}
	child, join := o.ForkRun("obs-mix", "dpPred+cbPred")
	runObsSystem(t, child)
	join()

	for _, want := range []obs.Kind{obs.EvLLTFill, obs.EvLLTEvict, obs.EvWalk, obs.EvLLCFill, obs.EvLLCEvict, obs.EvInterval} {
		if kinds[want] == 0 {
			t.Errorf("no %v events traced (kinds seen: %v)", want, kinds)
		}
	}

	samples := o.Interval.Samples()
	if len(samples) < 5 {
		t.Fatalf("got %d interval samples, want ≥ 5", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Run != "obs-mix/dpPred+cbPred" || last.IPC <= 0 || last.Instructions == 0 {
		t.Errorf("sample looks empty: %+v", last)
	}
	if last.PHISTHist == nil || last.BHISTHist == nil {
		t.Errorf("predictor counter histograms missing: %+v", last)
	}

	snap := o.Metrics.Snapshot()
	for _, name := range []string{
		"obs-mix/dpPred+cbPred/llt.lookups",
		"obs-mix/dpPred+cbPred/llc.misses",
		"obs-mix/dpPred+cbPred/walker.walks",
		"obs-mix/dpPred+cbPred/core.ipc",
		"obs-mix/dpPred+cbPred/dppred.increments",
		"obs-mix/dpPred+cbPred/cbpred.notifications",
	} {
		if snap[name] == 0 {
			t.Errorf("metric %s is zero or missing", name)
		}
	}
}

// TestDisabledObserverStepAllocatesNothing asserts the disabled-observer
// hot path stays allocation-free: tracing must cost nothing when off, and
// a warm run from a live generator reuses its scratch chunk.
func TestDisabledObserverStepAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attachPaper(s); err != nil {
		t.Fatal(err)
	}
	g := obsTestMix(t, 3)
	// Warm the page table, caches and generator so steady state remains.
	if err := s.Run(g, 400_000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Run(g, 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Run with observer disabled allocates %.2f/op, want 0", allocs)
	}
}

// attachPaper installs dpPred + cbPred with default parameters (the root
// package's AttachPaperPredictors would import-cycle from here).
func attachPaper(s *System) (*core.DPPred, error) {
	dp, err := core.NewDPPred(core.DefaultDPPredConfig(s.LLT().Entries()))
	if err != nil {
		return nil, err
	}
	cb, err := core.NewCBPred(core.DefaultCBPredConfig(s.LLC().Capacity()))
	if err != nil {
		return nil, err
	}
	s.SetTLBPredictor(dp)
	s.SetLLCPredictor(cb)
	return dp, nil
}

func BenchmarkStepObserverDisabled(b *testing.B) {
	cfg := DefaultConfig()
	s := MustNew(cfg)
	if _, err := attachPaper(s); err != nil {
		b.Fatal(err)
	}
	g := obsTestMix(b, 3)
	if err := s.Run(g, 100_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(g, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkStepObserverTracing(b *testing.B) {
	cfg := DefaultConfig()
	s := MustNew(cfg)
	if _, err := attachPaper(s); err != nil {
		b.Fatal(err)
	}
	o := &obs.Observer{
		Tracer:   obs.NewTracer(obs.NullSink{}),
		Interval: obs.NewIntervalRecorder(10_000),
	}
	s.AttachObserver(o)
	g := obsTestMix(b, 3)
	if err := s.Run(g, 100_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(g, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepInstrumented prices the instruments a measured cell
// carries, without a tracer: the accuracy and confusion mirrors and the
// metrics histograms, all reached through the core's composite.
func BenchmarkStepInstrumented(b *testing.B) {
	s := MustNew(DefaultConfig())
	if _, err := attachPaper(s); err != nil {
		b.Fatal(err)
	}
	s.AttachMetrics(obs.NewRegistry())
	if err := s.EnableAccuracyTracking(); err != nil {
		b.Fatal(err)
	}
	if err := s.EnableConfusionTracking(); err != nil {
		b.Fatal(err)
	}
	g := obsTestMix(b, 3)
	if err := s.Run(g, 100_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(g, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepWarm measures the bare machine — no predictors attached —
// stepping a fully-warm system. The delta against
// BenchmarkStepObserverDisabled is the paper predictors' overhead.
func BenchmarkStepWarm(b *testing.B) {
	cfg := DefaultConfig()
	s := MustNew(cfg)
	g := obsTestMix(b, 3)
	if err := s.Run(g, 100_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(g, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// TestConfusionSwapKeepsIntervalsSane: EnableConfusionTracking after an
// observer with a registry replaces the observer's confusion mirrors with
// fresh shared ones; the interval that spans the swap must count the new
// mirrors from zero, not wrap below the old ones' counts.
func TestConfusionSwapKeepsIntervalsSane(t *testing.T) {
	const every = 20_000
	s := MustNew(smallConfig())
	if _, err := attachPaper(s); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewIntervalRecorder(every)
	s.AttachObserver(&obs.Observer{Interval: rec, Metrics: obs.NewRegistry()})
	rd := materializeWorkload(t, "mcf", 1, 200_000).Reader()
	if err := s.Run(rd, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableConfusionTracking(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(rd, 100_000); err != nil {
		t.Fatal(err)
	}
	// An access reaches the LLT at most twice and the LLC at most nine
	// times (a data access plus two four-level walks), each grading at
	// most one mirror eviction.
	for _, x := range rec.Samples() {
		if x.LLTTrueDead+x.LLTPremature+x.LLTMissed > 2*every || x.LLCTrueDead+x.LLCPremature+x.LLCMissed > 9*every {
			t.Errorf("interval at access %d: confusion counts out of range: %+v", x.Access, x)
		}
	}
}
