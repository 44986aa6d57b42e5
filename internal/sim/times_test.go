package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/trace"
)

// characterize makes a freshly built machine track entry times and turns
// on the §IV samplers.
func characterize(t testing.TB, s *System, sampleEvery uint64) {
	t.Helper()
	if err := s.TrackEntryTimes(); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCharacterization(sampleEvery); err != nil {
		t.Fatal(err)
	}
}

// timedStructures names the machine's structures that keep generation
// records.
func timedStructures(s *System) []string {
	p := s.cores[0]
	var names []string
	for _, c := range []*cache.Cache{p.itlb.Inner(), p.dtlb.Inner(), s.llt.Inner(), p.l1d, p.l2, s.llc} {
		if c.TracksTimes() {
			names = append(names, c.Name())
		}
	}
	return names
}

// TestEntryTimesOnlyWhereSampled: a Table IV machine (predictors, no
// characterization, no observer) and a traced-only one hold no generation
// records at all; a characterization machine and one with lifetime
// histograms hold them on the LLT and the LLC only.
func TestEntryTimesOnlyWhereSampled(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		setup func(*System)
		want  []string
	}{
		{"table4", func(*System) {}, nil},
		{"tracer", func(s *System) {
			s.AttachObserver(&obs.Observer{Tracer: obs.NewTracer(obs.NullSink{})})
		}, nil},
		{"characterization", func(s *System) { characterize(t, s, 5_000) }, []string{"LLT", "LLC"}},
		{"histograms", func(s *System) { s.AttachMetrics(obs.NewRegistry()) }, []string{"LLT", "LLC"}},
	} {
		s := MustNew(smallConfig())
		if _, err := attachPaper(s); err != nil {
			t.Fatal(err)
		}
		tc.setup(s)
		if err := s.Run(w.New(1), 20_000); err != nil {
			t.Fatal(err)
		}
		if got := timedStructures(s); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: structures with entry times %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCharacterizationNeedsEntryTimes: the samplers refuse a machine that
// does not track entry times, and a machine that has filled its LLT cannot
// start tracking them, nor take lifetime histograms — none may report
// from zero times.
func TestCharacterizationNeedsEntryTimes(t *testing.T) {
	s := MustNew(smallConfig())
	if err := s.EnableCharacterization(1_000); err == nil {
		t.Error("characterization enabled on a machine without entry times")
	}
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(w.New(1), 1_000); err != nil {
		t.Fatal(err)
	}
	if err := s.TrackEntryTimes(); err == nil {
		t.Error("a warmed machine started tracking entry times")
	}
	defer func() {
		if recover() == nil {
			t.Error("lifetime histograms attached to a warmed machine without entry times")
		}
	}()
	s.AttachMetrics(obs.NewRegistry())
}

// TestCheckpointEntryTimes: a machine that tracks entry times checkpoints
// its generation records and restores them byte for byte; a checkpoint
// without them is refused by such a machine, and a machine without them
// restores a checkpoint that has them, dropping the records.
func TestCheckpointEntryTimes(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	warm := func(times bool) *System {
		s := MustNew(fixtureConfig())
		if times {
			if err := s.TrackEntryTimes(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(w.New(1), 20_000); err != nil {
			t.Fatal(err)
		}
		return s
	}
	restore := func(in []byte, times bool) (*System, error) {
		s := MustNew(fixtureConfig())
		if times {
			if err := s.TrackEntryTimes(); err != nil {
				t.Fatal(err)
			}
		}
		_, err := s.ReadCheckpoint(bytes.NewReader(in))
		return s, err
	}
	timed, bare := checkpointBytes(t, warm(true)), checkpointBytes(t, warm(false))
	if len(timed) <= len(bare) {
		t.Fatalf("checkpoint with entry times is %d bytes, without %d", len(timed), len(bare))
	}
	s, err := restore(timed, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, s); !bytes.Equal(got, timed) {
		t.Error("a restored machine with entry times re-encodes differently")
	}
	if _, err := restore(bare, true); err == nil || !strings.Contains(err.Error(), "entry times") {
		t.Errorf("a checkpoint without entry times restored into a machine that tracks them: %v", err)
	}
	s, err = restore(timed, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, s); !bytes.Equal(got, bare) {
		t.Error("dropping the entry times left a machine that differs from one warmed without them")
	}
}
