package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultio"
	"repro/internal/trace"
)

// Regression tests for streamed traces (-trace-dir): a cancellation or
// failure mid-record must leave no temp files, no truncated .dpbf a later
// run would accept, and nothing a later run reuses — the interrupted
// workload's trace is recomputed from scratch.

// hookGen passes an inner generator through, firing hook once when the
// shared counter reaches at.
type hookGen struct {
	inner trace.Generator
	calls *atomic.Int64
	at    int64
	once  *sync.Once
	hook  func()
}

func (g *hookGen) Name() string { return g.inner.Name() }

func (g *hookGen) Next() trace.Access {
	if g.calls.Add(1) == g.at {
		g.once.Do(g.hook)
	}
	return g.inner.Next()
}

// failGen passes an inner generator through and latches an error after
// failAt accesses, like a trace source whose backing I/O died.
type failGen struct {
	inner  trace.Generator
	calls  int64
	failAt int64
	err    error
}

func (g *failGen) Name() string { return g.inner.Name() }

func (g *failGen) Next() trace.Access {
	g.calls++
	return g.inner.Next()
}

func (g *failGen) Err() error {
	if g.calls >= g.failAt {
		return g.err
	}
	return nil
}

// listDir returns the names of every entry under dir, for asserting that
// nothing (temp file or final trace) was left behind.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestTraceDirCancelMidRecordRecomputes is the SIGINT-mid-record audit:
// cancel the context while a workload's trace file is being recorded, then
// prove the aborted recording left no file behind (temp or final), and a
// later run re-records and produces the same bytes as the in-memory mode —
// never a stale or partial trace.
func TestTraceDirCancelMidRecordRecomputes(t *testing.T) {
	dir := t.TempDir()
	inner := testWorkload(t, "cc")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	var once sync.Once
	// The wrapper is byte-transparent: it forwards cc's generator and only
	// fires the cancellation (once, globally) mid-way through the first
	// recording, emulating a SIGINT arriving while RecordV2Context runs.
	w := trace.Workload{Name: "cc", New: func(seed uint64) trace.Generator {
		return &hookGen{inner: inner.New(seed), calls: &calls, at: 3_000, once: &once, hook: cancel}
	}}

	r := NewRunner(cancelTestParams)
	r.SetJobs(1)
	r.SetTraceDir(dir)
	if _, err := r.RunContext(ctx, w, Baseline()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-record run returned %v, want context.Canceled", err)
	}
	if left := listDir(t, dir); len(left) != 0 {
		t.Fatalf("aborted recording left files behind: %v", left)
	}

	// The same runner must recompute, not replay the aborted attempt: the
	// next Run plans its own trace node, so this re-records the full trace.
	res, err := r.RunContext(context.Background(), w, Baseline())
	if err != nil {
		t.Fatalf("re-run after canceled recording: %v", err)
	}
	if _, err := os.Stat(streamPath(dir, "cc", cancelTestParams)); err != nil {
		t.Fatalf("re-run did not record the trace file: %v", err)
	}

	// And the recomputed result matches the in-memory mode bit for bit.
	ref := NewRunner(cancelTestParams)
	want, err := ref.Run(inner, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("post-cancellation recompute diverges from the in-memory mode")
	}
}

// streamPath mirrors streamWorkload's cache-file naming.
func streamPath(dir, name string, p Params) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-n%d.dpbf", name, p.Seed, p.Warmup+p.Measure))
}

// TestTraceDirGeneratorErrorCleansUp: a generator failing mid-record (the
// non-cancellation error path) must remove the temp file, leave no final
// file, and surface the error; faultio.ErrInjected stands in for a dead
// trace source.
func TestTraceDirGeneratorErrorCleansUp(t *testing.T) {
	dir := t.TempDir()
	inner := testWorkload(t, "cc")
	w := trace.Workload{Name: "cc", New: func(seed uint64) trace.Generator {
		return &failGen{inner: inner.New(seed), failAt: 2_000, err: faultio.ErrInjected}
	}}

	r := NewRunner(cancelTestParams)
	r.SetJobs(1)
	r.SetTraceDir(dir)
	if _, err := r.Run(w, Baseline()); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("failed recording returned %v, want ErrInjected", err)
	}
	if left := listDir(t, dir); len(left) != 0 {
		t.Fatalf("failed recording left files behind: %v", left)
	}
	// A trace lives in its plan, so a later Run records again; it fails the
	// same way and again leaves nothing behind.
	if _, err := r.Run(w, DPPredSetup()); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("second recording did not fail: %v", err)
	}
	if left := listDir(t, dir); len(left) != 0 {
		t.Fatalf("second failed recording left files behind: %v", left)
	}
}

// TestTraceDirRejectsTruncatedCache: a truncated .dpbf at the cache path —
// the artifact a kill -9 between write and rename could have produced
// before temp+rename, or a torn copy — must be rejected by the reuse
// path's validation, never silently replayed.
func TestTraceDirRejectsTruncatedCache(t *testing.T) {
	p := cancelTestParams
	w := testWorkload(t, "cc")
	n := p.Warmup + p.Measure
	var buf bytes.Buffer
	if err := trace.RecordV2(&buf, w.New(p.Seed), n); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated-60pct", full[:len(full)*3/5]},
		{"truncated-trailer", full[:len(full)-8]},
		{"corrupt-index", corruptTail(full)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(streamPath(dir, "cc", p), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			r := NewRunner(p)
			r.SetJobs(1)
			r.SetTraceDir(dir)
			if _, err := r.Run(w, Baseline()); err == nil {
				t.Fatal("runner accepted a damaged cached trace")
			}
		})
	}
}

// corruptTail flips a byte in the chunk index / footer region.
func corruptTail(full []byte) []byte {
	data := bytes.Clone(full)
	data[len(data)-24] ^= 0x41
	return data
}

// TestRecordV2FullDiskPropagates: RecordV2Context against a writer that
// runs out of space must surface ErrNoSpace (streamWorkload's cleanup path
// depends on the error coming back, not on a short write being absorbed).
func TestRecordV2FullDiskPropagates(t *testing.T) {
	w := testWorkload(t, "cc")
	for _, capacity := range []int64{0, 100, 4096} {
		var sink bytes.Buffer
		fw := faultio.NewFailingWriter(&sink, capacity, faultio.ErrNoSpace)
		err := trace.RecordV2Context(context.Background(), fw, w.New(1), 20_000)
		if !errors.Is(err, faultio.ErrNoSpace) {
			t.Fatalf("capacity %d: RecordV2Context returned %v, want ErrNoSpace", capacity, err)
		}
	}
}
