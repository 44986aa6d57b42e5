package sim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultio"
	"repro/internal/trace"
)

// TestCheckpointSurvivesNoInjectedFault sanity-checks the harness itself:
// the fault wrappers set to fire past the end of the data must be inert.
func TestCheckpointSurvivesNoInjectedFault(t *testing.T) {
	s := newCkptSystem(t)
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(w.New(s.cfg.Machine.Seed), 20_000); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.WriteCheckpoint(&ck, w.Name); err != nil {
		t.Fatal(err)
	}
	rest := newCkptSystem(t)
	r := faultio.NewFailingReader(bytes.NewReader(ck.Bytes()), int64(ck.Len())+1, nil)
	if _, err := rest.ReadCheckpoint(r); err != nil {
		t.Fatalf("restore through an inert fault wrapper failed: %v", err)
	}
}

// TestCheckpointRestoreInjectedFaults: a checkpoint whose read dies
// mid-stream, is truncated, or has a corrupted byte must fail restore with
// an error — never panic, never silently restore partial state.
func TestCheckpointRestoreInjectedFaults(t *testing.T) {
	s := newCkptSystem(t)
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(w.New(s.cfg.Machine.Seed), 20_000); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.WriteCheckpoint(&ck, w.Name); err != nil {
		t.Fatal(err)
	}
	raw := ck.Bytes()

	t.Run("read error mid-stream", func(t *testing.T) {
		rest := newCkptSystem(t)
		r := faultio.NewFailingReader(bytes.NewReader(raw), int64(len(raw)/3), nil)
		if _, err := rest.ReadCheckpoint(r); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("err = %v, want wrapped faultio.ErrInjected", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		rest := newCkptSystem(t)
		if _, err := rest.ReadCheckpoint(faultio.Truncate(bytes.NewReader(raw), int64(len(raw)-9))); err == nil {
			t.Fatal("truncated checkpoint restored")
		}
	})
	t.Run("corrupt magic", func(t *testing.T) {
		rest := newCkptSystem(t)
		if _, err := rest.ReadCheckpoint(faultio.NewCorruptReader(bytes.NewReader(raw), 1)); err == nil {
			t.Fatal("corrupt-magic checkpoint restored")
		}
	})
}

// TestCheckpointWriteFullDisk: a sink that fills mid-write must surface the
// error from WriteCheckpoint.
func TestCheckpointWriteFullDisk(t *testing.T) {
	s := newCkptSystem(t)
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(w.New(s.cfg.Machine.Seed), 20_000); err != nil {
		t.Fatal(err)
	}
	sink := faultio.NewFailingWriter(nil, 512, nil)
	if err := s.WriteCheckpoint(sink, w.Name); !errors.Is(err, faultio.ErrNoSpace) {
		t.Fatalf("err = %v, want wrapped faultio.ErrNoSpace", err)
	}
}

// TestRunContextCancellation: a canceled context must stop the simulation
// at a stride boundary with the context's error, and an uncancelable
// context must take the unchecked loop and run to completion.
func TestRunContextCancellation(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}

	s := MustNew(smallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.RunContext(ctx, w.New(1), 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled RunContext err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled at access 0") {
		t.Errorf("err = %v, want the abort position in the message", err)
	}

	s2 := MustNew(smallConfig())
	if err := s2.RunContext(context.Background(), w.New(1), 50_000); err != nil {
		t.Fatalf("background RunContext err = %v", err)
	}
}

// TestRunSurfacesGeneratorError: feeding the simulator from a trace replay
// that fails mid-stream must fail the run, not quietly simulate the
// repeated final record. The trace's second chunk header disagrees with its
// index, so trace.Open accepts the file and the stream dies at chunk 1.
func TestRunSurfacesGeneratorError(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000 // three DPBF v2 chunks
	var rec bytes.Buffer
	if err := trace.RecordV2(&rec, w.New(1), n); err != nil {
		t.Fatal(err)
	}
	raw := rec.Bytes()
	ct, err := trace.OpenChunked(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	// The v2 header is magic|version|flags|nameLen (10 bytes), the name,
	// count u64 and chunkLen u32; each chunk is a 12-byte header and its
	// payload. Bump chunk 1's record count.
	encLen0, _ := ct.ChunkInfo(0)
	raw[10+len("cc")+12+12+int(encLen0)]++
	rp, err := trace.Open(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(smallConfig())
	err = s.Run(rp, n)
	if !errors.Is(err, trace.ErrChunkIndexMismatch) {
		t.Fatalf("err = %v, want the replay's latched trace.ErrChunkIndexMismatch", err)
	}
}
