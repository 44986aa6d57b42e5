package sim

import (
	"reflect"
	"testing"

	"repro/internal/pred"
	"repro/internal/trace"
)

// TestSimulationDeterminism is the reproducibility contract of the whole
// stack: identical configuration + identical seed must produce bit-equal
// results, because the oracle's two-pass protocol and every experiment in
// the repository depend on it.
func TestSimulationDeterminism(t *testing.T) {
	run := func() Result {
		s := MustNew(smallConfig())
		dp, err := newTestDPPred(s)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTLBPredictor(dp)
		w, err := trace.ByName("sssp")
		if err != nil {
			t.Fatal(err)
		}
		g := w.New(42)
		if err := s.Run(g, 100_000); err != nil {
			t.Fatal(err)
		}
		s.StartMeasurement()
		if err := s.Run(g, 200_000); err != nil {
			t.Fatal(err)
		}
		return s.Result()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed runs diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestSeedChangesResults guards against accidentally ignoring the seed.
func TestSeedChangesResults(t *testing.T) {
	run := func(seed uint64) Result {
		cfg := smallConfig()
		cfg.Seed = seed
		s := MustNew(cfg)
		w, err := trace.ByName("cc")
		if err != nil {
			t.Fatal(err)
		}
		g := w.New(seed)
		s.StartMeasurement()
		if err := s.Run(g, 100_000); err != nil {
			t.Fatal(err)
		}
		return s.Result()
	}
	if reflect.DeepEqual(run(1), run(2)) {
		t.Error("different seeds produced identical results")
	}
}

// TestOracleNeverWorseThanBaseline: the two-pass oracle bypasses only
// proven-DOA fills, so it must not increase walks.
func TestOracleDoesNotIncreaseWalks(t *testing.T) {
	w, err := trace.ByName("cactusADM")
	if err != nil {
		t.Fatal(err)
	}
	const warm, meas = 100_000, 300_000

	base := MustNew(smallConfig())
	g := w.New(1)
	if err := base.Run(g, warm); err != nil {
		t.Fatal(err)
	}
	base.StartMeasurement()
	if err := base.Run(g, meas); err != nil {
		t.Fatal(err)
	}
	baseRes := base.Result()

	// Recording pass.
	rec := newRecorder(t, w, warm+meas)

	// Replay pass with the oracle.
	orc := MustNew(smallConfig())
	orc.SetTLBPredictor(rec)
	g = w.New(1)
	if err := orc.Run(g, warm); err != nil {
		t.Fatal(err)
	}
	orc.StartMeasurement()
	if err := orc.Run(g, meas); err != nil {
		t.Fatal(err)
	}
	orcRes := orc.Result()

	// Allow a small tolerance: bypassing shifts which conflict misses
	// occur, but the oracle must roughly dominate.
	if float64(orcRes.Walks) > 1.02*float64(baseRes.Walks) {
		t.Errorf("oracle walks %d exceed baseline %d", orcRes.Walks, baseRes.Walks)
	}
}

// newRecorder runs the recording pass and returns the oracle replayer.
func newRecorder(t *testing.T, w trace.Workload, n uint64) pred.TLBPredictor {
	t.Helper()
	rec := pred.NewDOARecord()
	s := MustNew(smallConfig())
	s.SetTLBPredictor(pred.NewRecorderTLB(rec))
	g := w.New(1)
	if err := s.Run(g, n); err != nil {
		t.Fatal(err)
	}
	return pred.NewOracleTLB(rec)
}
