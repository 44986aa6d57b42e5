package exp

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// TestCharacterizationTracksEntryTimes: the runner gives a
// characterization setup's machine entry times on its LLT and LLC, and
// none to the Table IV setups; such a cell never takes the warm-fork path;
// and measuring a characterization cell on a machine built without entry
// times is an error, not a run of zero times.
func TestCharacterizationTracksEntryTimes(t *testing.T) {
	r := NewRunner(Params{Warmup: 2_000, Measure: 4_000, Seed: 1, SampleEvery: 1_000})
	for _, su := range []Setup{Baseline(), AIPTLBSetup(), SHiPTLBSetup(), DPPredSetup(), IsoStorageSetup()} {
		s, err := r.machine(su)
		if err != nil {
			t.Fatal(err)
		}
		if s.LLT().Inner().TracksTimes() || s.LLC().TracksTimes() {
			t.Errorf("%s: the machine tracks entry times", su.Name)
		}
	}
	char := characterizationSetup()
	s, err := r.machine(char)
	if err != nil {
		t.Fatal(err)
	}
	if !s.LLT().Inner().TracksTimes() || !s.LLC().TracksTimes() {
		t.Error("the characterization machine does not track entry times on its LLT and LLC")
	}
	if r.warmShareable(char) {
		t.Error("a characterization cell may take the warm-fork path")
	}

	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	s, err = r.machine(Baseline())
	if err != nil {
		t.Fatal(err)
	}
	gens := []trace.Generator{w.New(1)}
	if err := s.RunTenants(context.Background(), gens, r.Params().Warmup); err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(context.Background(), r.Params(), s, gens, char); err == nil {
		t.Error("characterization measured a machine built without entry times")
	}
}
