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

// TestRunSurfacesGeneratorError: feeding the simulator from a replayer
// over a truncated trace must fail the run, not quietly simulate the
// repeated final record.
func TestRunSurfacesGeneratorError(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := trace.Record(&rec, w.New(1), 1_000); err != nil {
		t.Fatal(err)
	}
	raw := rec.Bytes()
	rp, err := trace.NewReplayer(faultio.Truncate(bytes.NewReader(raw), int64(len(raw)-11)), false)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(smallConfig())
	err = s.Run(rp, 1_000)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want the replayer's latched truncation error", err)
	}
}
