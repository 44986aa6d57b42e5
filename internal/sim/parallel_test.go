package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestConcurrentSystemsShareNothing is the isolation contract the parallel
// experiment runner builds on: independently constructed System instances
// carry no shared mutable state, so N concurrent seeded runs must produce
// Results bit-equal to a sequential run of the same configuration. The
// race detector (tier-1 runs with -race) turns any hidden sharing into a
// hard failure.
func TestConcurrentSystemsShareNothing(t *testing.T) {
	runOne := func() (Result, error) {
		cfg := smallConfig()
		cfg.Seed = 3
		s, err := New(cfg)
		if err != nil {
			return Result{}, err
		}
		dp, err := newTestDPPred(s)
		if err != nil {
			return Result{}, err
		}
		s.SetTLBPredictor(dp)
		cb, err := core.NewCBPred(core.DefaultCBPredConfig(s.LLC().Capacity()))
		if err != nil {
			return Result{}, err
		}
		s.SetLLCPredictor(cb)
		w, err := trace.ByName("sssp")
		if err != nil {
			return Result{}, err
		}
		g := w.New(3)
		if err := s.Run(g, 40_000); err != nil {
			return Result{}, err
		}
		s.StartMeasurement()
		if err := s.Run(g, 80_000); err != nil {
			return Result{}, err
		}
		s.Finish()
		return s.Result(), nil
	}

	want, err := runOne()
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	type outcome struct {
		res Result
		err error
	}
	ch := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := runOne()
			ch <- outcome{res, err}
		}()
	}
	for i := 0; i < n; i++ {
		got := <-ch
		if got.err != nil {
			t.Fatal(got.err)
		}
		if !reflect.DeepEqual(got.res, want) {
			t.Errorf("concurrent run diverged from sequential:\n  got  %+v\n  want %+v", got.res, want)
		}
	}
}
