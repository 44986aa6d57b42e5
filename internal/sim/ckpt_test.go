package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pred"
	"repro/internal/trace"
)

// newCkptSystem builds the dpPred+cbPred machine used by the checkpoint
// tests — the configuration with the most serialized state.
func newCkptSystem(t *testing.T) *System {
	t.Helper()
	s := MustNew(smallConfig())
	dp, err := newTestDPPred(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTLBPredictor(dp)
	cb, err := core.NewCBPred(core.DefaultCBPredConfig(s.LLC().Capacity()))
	if err != nil {
		t.Fatal(err)
	}
	s.SetLLCPredictor(cb)
	return s
}

// TestCheckpointRoundTrip is the restore contract: a fresh machine restored
// from a checkpoint and spliced onto the same stream positions must measure
// bit-identically to the machine that wrote it — and re-serializing the
// restored state must reproduce the checkpoint byte for byte. It holds on
// the plain machine and on a 2-core 3-tenant one with context switching and
// unmap injection.
func TestCheckpointRoundTrip(t *testing.T) {
	t.Run("1x1", func(t *testing.T) {
		const warm, meas = 100_000, 200_000
		w, err := trace.ByName("cc")
		if err != nil {
			t.Fatal(err)
		}

		orig := newCkptSystem(t)
		g := w.New(orig.cfg.Machine.Seed)
		if err := orig.Run(g, warm); err != nil {
			t.Fatal(err)
		}
		ck := checkpointBytes(t, orig)

		rest := newCkptSystem(t)
		meta, err := rest.ReadCheckpoint(bytes.NewReader(ck))
		if err != nil {
			t.Fatal(err)
		}
		if meta.Accesses != warm || !reflect.DeepEqual(meta.TenantAccesses, []uint64{warm}) {
			t.Fatalf("meta = %+v, want %d accesses", meta, warm)
		}
		if !bytes.Equal(ck, checkpointBytes(t, rest)) {
			t.Error("re-serialized checkpoint differs from the original")
		}

		g2 := w.New(rest.cfg.Machine.Seed)
		for i := uint64(0); i < meta.Accesses; i++ {
			g2.Next()
		}
		run := func(s *System, g trace.Generator) Result {
			s.StartMeasurement()
			if err := s.Run(g, meas); err != nil {
				t.Fatal(err)
			}
			s.Finish()
			return s.Result()
		}
		got, want := run(rest, g2), run(orig, g)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("restored run diverged from original:\n  restored=%+v\n  original=%+v", got, want)
		}
	})
	t.Run("2x3", func(t *testing.T) {
		const warm, meas = 60_000, 120_000
		m, bufs, pos := warmMulti(t, warm)
		ck := checkpointBytes(t, m)

		r, err := NewMulti(m.Config())
		if err != nil {
			t.Fatal(err)
		}
		installMultiPreds(t, r)
		meta, err := r.ReadCheckpoint(bytes.NewReader(ck))
		if err != nil {
			t.Fatal(err)
		}
		if meta.Accesses != warm || !reflect.DeepEqual(meta.TenantAccesses, pos) {
			t.Errorf("checkpoint covers %d accesses split %v, want %d split %v", meta.Accesses, meta.TenantAccesses, warm, pos)
		}
		if !bytes.Equal(ck, checkpointBytes(t, r)) {
			t.Error("re-serialized checkpoint differs from the original")
		}

		got := runMulti(t, r, readers(bufs, pos), meas)
		want := runMulti(t, m, readers(bufs, pos), meas)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("restored run diverged from master:\n  restored=%+v\n  master=%+v", got, want)
		}
	})
}

// TestCheckpointMismatchRejected: restoring under different flags must fail
// loudly, never silently diverge.
func TestCheckpointMismatchRejected(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	orig := newCkptSystem(t)
	g := w.New(orig.cfg.Machine.Seed)
	if err := orig.Run(g, 50_000); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := orig.WriteCheckpoint(&ck, w.Name); err != nil {
		t.Fatal(err)
	}

	t.Run("seed", func(t *testing.T) {
		cfg := smallConfig()
		cfg.Seed = 999
		s := MustNew(cfg)
		dp, err := newTestDPPred(s)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTLBPredictor(dp)
		cb, err := core.NewCBPred(core.DefaultCBPredConfig(s.LLC().Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		s.SetLLCPredictor(cb)
		if _, err := s.ReadCheckpoint(bytes.NewReader(ck.Bytes())); err == nil {
			t.Error("seed mismatch accepted")
		}
	})
	t.Run("predictors", func(t *testing.T) {
		s := MustNew(smallConfig())
		if _, err := s.ReadCheckpoint(bytes.NewReader(ck.Bytes())); err == nil {
			t.Error("predictor mismatch accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		s := newCkptSystem(t)
		if _, err := s.ReadCheckpoint(bytes.NewReader(ck.Bytes()[:ck.Len()/2])); err == nil {
			t.Error("truncated checkpoint accepted")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		s := newCkptSystem(t)
		if _, err := s.ReadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
			t.Error("garbage input accepted")
		}
	})
}

// TestCheckpointRefusals mirrors the fork guards: instrumentation and
// non-codec predictors cannot be checkpointed.
func TestCheckpointRefusals(t *testing.T) {
	var ck bytes.Buffer
	t.Run("instrumented", func(t *testing.T) {
		s := newCkptSystem(t)
		if err := s.EnableAccuracyTracking(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint(&ck, "x"); err == nil {
			t.Error("checkpoint with accuracy tracking enabled was not refused")
		}
	})
	t.Run("recorder", func(t *testing.T) {
		s := MustNew(smallConfig())
		s.SetTLBPredictor(pred.NewRecorderTLB(pred.NewDOARecord()))
		if err := s.WriteCheckpoint(&ck, "x"); err == nil {
			t.Error("checkpoint with the oracle recorder installed was not refused")
		}
	})
}
