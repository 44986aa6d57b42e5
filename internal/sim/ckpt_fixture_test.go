package sim

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/trace"
)

// The checked-in fixtures freeze the checkpoint byte formats. All three
// hold the same warm state: a baseline machine after 20k accesses of cc.
// The DPMK v2 fixture was written by WriteCheckpoint, so any change to a
// component's in-memory layout (the page table's radix nodes, the cache
// arrays) must still decode it and re-encode it byte for byte. The DPMK
// v1 fixture (64-byte cache entries) and the DPCK fixture were written by
// the codecs of earlier releases; they pin the read-only v1 and DPCK
// paths, whose decodes must re-encode to exactly the v2 fixture.
// Regenerate the v2 fixture only for a deliberate format change (which
// also bumps ckptVersion and keeps the old fixture as a read-only input):
//
//	go test ./internal/sim -run TestCheckpointFixture -update-dpmk
const (
	dpckFixture       = "testdata/cc-20k-baseline.dpck"
	dpmkV1Fixture     = "testdata/cc-20k-baseline.dpmk"
	dpmkFixture       = "testdata/cc-20k-baseline-v2.dpmk"
	dpckFixtureWarmup = 20_000
)

var updateDPMK = flag.Bool("update-dpmk", false, "rewrite the DPMK v2 checkpoint fixture")

// fixtureConfig is the Table I machine with shrunken data caches, so the
// fixture stays small while the page table and TLBs keep their full shape.
func fixtureConfig() Config {
	cfg := smallConfig()
	cfg.L1D.SizeKB = 4
	cfg.L2.SizeKB = 16
	cfg.LLC.SizeKB = 64
	return cfg
}

func TestCheckpointFixture(t *testing.T) {
	if *updateDPMK {
		w, err := trace.ByName("cc")
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(fixtureConfig())
		if err := s.Run(w.New(s.cfg.Machine.Seed), dpckFixtureWarmup); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf, "cc"); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dpmkFixture, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(dpmkFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{dpmkFixture, dpmkV1Fixture, dpckFixture} {
		in, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(fixtureConfig())
		meta, err := s.ReadCheckpoint(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
		if meta.Workload != "cc" || meta.Accesses != dpckFixtureWarmup {
			t.Fatalf("%s meta = %+v, want cc after %d accesses", path, meta, dpckFixtureWarmup)
		}
		pt := s.tenants[0].pt
		if pt.TableNodes() < 4 {
			t.Fatalf("%s page table holds %d nodes; want a populated tree", path, pt.TableNodes())
		}
		var got bytes.Buffer
		if err := s.WriteCheckpoint(&got, meta.Workload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s re-encoded differs from %s: %d bytes, want %d", path, dpmkFixture, got.Len(), len(want))
		}
	}
}

// FuzzCheckpointDecode: whatever the bytes, ReadCheckpoint either returns
// an error or leaves a machine that runs on. Seeded with all three
// fixtures, so mutations land in every section of every layout.
func FuzzCheckpointDecode(f *testing.F) {
	for _, path := range []string{dpmkFixture, dpmkV1Fixture, dpckFixture} {
		in, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(in)
	}
	w, err := trace.ByName("cc")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := MustNew(fixtureConfig())
		meta, err := s.ReadCheckpoint(bytes.NewReader(in))
		if err != nil {
			return
		}
		g := w.New(s.cfg.Machine.Seed)
		for i := uint64(0); i < meta.Accesses%(1<<16); i++ {
			g.Next()
		}
		// The run may fail (a restored page table can be out of frames);
		// it must not panic.
		_ = s.Run(g, 1_000)
	})
}
