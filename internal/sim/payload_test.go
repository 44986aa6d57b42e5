package sim

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/pred"
	"repro/internal/trace"
)

// holdsPayload reports whether c keeps Block payloads: a tag-only cache
// answers Probe on a resident key with a nil block. c must hold an entry.
func holdsPayload(t *testing.T, c *cache.Cache) bool {
	t.Helper()
	var key uint64
	found := false
	c.ForEach(func(_, _ int, b *cache.Block) {
		if !found {
			key, found = b.Key, true
		}
	})
	if !found {
		t.Fatalf("%s holds no entry to probe", c.Name())
	}
	b, _ := c.Probe(key)
	return b != nil
}

// TestPayloadOnlyWhereRead: the data caches keep entry payloads only where
// something reads them. Under every Table IV setup (baseline, AIP-TLB,
// SHiP-TLB, dpPred, the iso-storage LLT and both oracle passes) L1D, L2
// and the LLC are tag-only; an LLC predictor (dpPred+cbPred, SHiP-LLC)
// gives the LLC its payload. A checkpoint of each machine but the oracle's
// restores into a fresh one in the same storage modes and re-encodes byte
// for byte. The walker's tests cover the page-walk caches, which no setup
// changes.
func TestPayloadOnlyWhereRead(t *testing.T) {
	byName := func(name string) func(*System) error {
		return func(s *System) error {
			reg, err := pred.Lookup(name)
			if err != nil {
				return err
			}
			if reg.Kind == pred.KindLLC {
				p, err := reg.NewLLC(s.LLC())
				s.SetLLCPredictor(p)
				return err
			}
			p, err := reg.NewTLB(s.LLT().Inner())
			s.SetTLBPredictor(p)
			return err
		}
	}
	record := pred.NewDOARecord()
	cases := []struct {
		name       string
		iso        bool
		install    []func(*System) error
		llcPayload bool
		noCkpt     bool // the oracle's passes cannot checkpoint
	}{
		{name: "baseline"},
		{name: "AIP-TLB", install: []func(*System) error{byName("AIP-TLB")}},
		{name: "SHiP-TLB", install: []func(*System) error{byName("SHiP-TLB")}},
		{name: "dpPred", install: []func(*System) error{byName("dpPred")}},
		{name: "iso-storage", iso: true},
		{name: "oracle record", install: []func(*System) error{func(s *System) error {
			s.SetTLBPredictor(pred.NewRecorderTLB(record))
			return nil
		}}, noCkpt: true},
		{name: "oracle", install: []func(*System) error{func(s *System) error {
			s.SetTLBPredictor(pred.NewOracleTLB(record))
			return nil
		}}, noCkpt: true},
		{name: "dpPred+cbPred", install: []func(*System) error{byName("dpPred"), byName("cbPred")}, llcPayload: true},
		{name: "SHiP-LLC", install: []func(*System) error{byName("SHiP-LLC")}, llcPayload: true},
	}
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		build := func() *System {
			cfg := smallConfig()
			if tc.iso {
				cfg.LLT.Entries, cfg.LLT.Ways = 1152, 9
			}
			s := MustNew(cfg)
			for _, in := range tc.install {
				if err := in(s); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
			return s
		}
		check := func(s *System, when string) {
			p := s.cores[0]
			for _, c := range []*cache.Cache{p.l1d, p.l2, s.llc} {
				want := c == s.llc && tc.llcPayload
				if got := holdsPayload(t, c); got != want {
					t.Errorf("%s, %s: %s holds payload %v, want %v", tc.name, when, c.Name(), got, want)
				}
			}
		}
		s := build()
		if err := s.Run(w.New(s.cfg.Machine.Seed), 60_000); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(s, "after the run")
		if tc.noCkpt {
			continue
		}
		ck := checkpointBytes(t, s)
		rest := build()
		if _, err := rest.ReadCheckpoint(bytes.NewReader(ck)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(rest, "restored")
		if !bytes.Equal(checkpointBytes(t, rest), ck) {
			t.Errorf("%s: the restored machine re-encodes differently", tc.name)
		}
	}
}
