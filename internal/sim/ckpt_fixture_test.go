package sim

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/trace"
)

// The checked-in DPCK fixture freezes the checkpoint byte format: it was
// written by WriteCheckpoint on a warmed baseline machine, so any change to
// a component's in-memory layout (the page table's radix nodes, the cache
// arrays) must still decode it and re-encode it byte for byte. Regenerate
// it only for a deliberate format change (which also bumps ckptVersion):
//
//	go test ./internal/sim -run TestCheckpointFixture -update-dpck
const (
	dpckFixture       = "testdata/cc-20k-baseline.dpck"
	dpckFixtureWarmup = 20_000
)

var updateDPCK = flag.Bool("update-dpck", false, "rewrite the DPCK checkpoint fixture")

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
	if *updateDPCK {
		w, err := trace.ByName("cc")
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(fixtureConfig())
		if err := s.Run(w.New(s.cfg.Seed), dpckFixtureWarmup); err != nil {
			t.Fatal(err)
		}
		var ck bytes.Buffer
		if err := s.WriteCheckpoint(&ck, w.Name); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dpckFixture, ck.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(dpckFixture)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(fixtureConfig())
	meta, err := s.ReadCheckpoint(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("decoding fixture: %v", err)
	}
	if meta.Workload != "cc" || meta.Accesses != dpckFixtureWarmup {
		t.Fatalf("fixture meta = %+v, want cc after %d accesses", meta, dpckFixtureWarmup)
	}
	if s.pt.MappedPages() == 0 || s.pt.TableNodes() < 4 {
		t.Fatalf("fixture page table holds %d pages in %d nodes; want a populated tree",
			s.pt.MappedPages(), s.pt.TableNodes())
	}
	var got bytes.Buffer
	if err := s.WriteCheckpoint(&got, meta.Workload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("re-encoded fixture differs: %d bytes, want %d", got.Len(), len(want))
	}
}
