package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// updateInstruments regenerates the instrument digests instead of checking
// them:
//
//	go test ./internal/sim -run TestInstrumentGolden -update
var updateInstruments = flag.Bool("update", false, "rewrite testdata/instrument-golden.json")

const instrumentGoldenPath = "testdata/instrument-golden.json"

// instrumentDigests runs the two instrumented golden scenarios on cc
// (50k warmup, 200k measured, dpPred+cbPred) and returns the sha256 of
// every artifact the instruments produce, keyed "scenario/artifact".
func instrumentDigests(t *testing.T) map[string]string {
	t.Helper()
	const seed, warm, meas = 42, 50_000, 200_000
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	put := func(key string, b []byte) {
		sum := sha256.Sum256(b)
		out[key] = hex.EncodeToString(sum[:])
	}
	putJSON := func(key string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		put(key, b)
	}
	predictors := func(s *System) {
		dp, err := core.NewDPPred(core.DefaultDPPredConfig(s.LLT().Entries()))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := core.NewCBPred(core.DefaultCBPredConfig(s.LLC().Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		s.SetTLBPredictor(dp)
		s.SetLLCPredictor(cb)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// One core: accuracy mirrors, the §IV samplers and the correlation
	// tracker, and an observer with a JSONL tracer, an interval recorder
	// and a registry, attached before warmup as the runner does.
	{
		cfg := DefaultConfig()
		cfg.Seed = seed
		s := MustNew(cfg)
		must(s.TrackEntryTimes())
		predictors(s)
		var events bytes.Buffer
		tr := obs.NewTracer(obs.NewJSONLSink(&events))
		o := &obs.Observer{Tracer: tr, Metrics: obs.NewRegistry(), Interval: obs.NewIntervalRecorder(20_000)}
		s.AttachObserver(o)
		g := w.New(seed)
		must(s.Run(g, warm))
		must(s.EnableAccuracyTracking())
		must(s.EnableCharacterization(20_000))
		s.StartMeasurement()
		must(s.Run(g, meas))
		s.Finish()
		must(tr.Close())
		put("single/trace.jsonl", events.Bytes())
		putJSON("single/metrics", o.Metrics.Snapshot())
		putJSON("single/histograms", o.Metrics.Histograms())
		putJSON("single/intervals", o.Interval.Samples())
		putJSON("single/result", s.Result())
	}

	// 2 cores × 2 tenants: per-core metrics and histograms, shared
	// confusion and accuracy mirrors.
	{
		mc := MultiConfig{Machine: DefaultConfig(), Cores: 2, Tenants: 2, Quantum: 10_000}
		mc.Machine.Seed = seed
		s, err := NewMulti(mc)
		must(err)
		predictors(s)
		reg := obs.NewRegistry()
		s.AttachMetrics(reg)
		gens := []trace.Generator{w.New(seed), w.New(seed + 1)}
		must(s.RunTenants(context.Background(), gens, warm))
		must(s.EnableConfusionTracking())
		must(s.EnableAccuracyTracking())
		s.StartMeasurement()
		must(s.RunTenants(context.Background(), gens, meas))
		s.Finish()
		putJSON("multi/metrics", reg.Snapshot())
		putJSON("multi/histograms", reg.Histograms())
		putJSON("multi/result", s.Result())
	}
	return out
}

// TestInstrumentGolden pins the bytes every passive instrument produces —
// tracer events, metric probes and histograms, interval samples and the
// instrumented Result — on a single-core observed run and a multi-core
// metrics run, so a change to how the access path reaches its instruments
// shows as a named digest mismatch. Regenerate with -update only after an
// intentional change to what an instrument observes.
func TestInstrumentGolden(t *testing.T) {
	got := instrumentDigests(t)
	if *updateInstruments {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(instrumentGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", instrumentGoldenPath)
		return
	}
	raw, err := os.ReadFile(filepath.FromSlash(instrumentGoldenPath))
	if err != nil {
		t.Fatalf("missing %s (run `go test ./internal/sim -run TestInstrumentGolden -update`): %v", instrumentGoldenPath, err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var bad []string
	for k, v := range want {
		if got[k] != v {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k+" (not in golden)")
		}
	}
	if len(bad) > 0 {
		t.Errorf("instrument digests changed: %s", strings.Join(bad, ", "))
	}
}
