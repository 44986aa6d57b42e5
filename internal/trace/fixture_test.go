package trace

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// The checked-in DPBF v1 fixture pins the read side of the retired v1
// format: tracedump can no longer write v1, so without a frozen artifact a
// regression in the v1 decoder would go unnoticed until someone's archived
// trace failed to load. The fixture is 40k accesses of the cc workload at
// seed 1, written by Buffer.WriteTo before v1 writing was removed.
const v1Fixture = "testdata/cc-40k-v1.dpbf"

func readV1Fixture(t *testing.T) *Buffer {
	t.Helper()
	f, err := os.Open(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := ReadTrace(f)
	if err != nil {
		t.Fatalf("reading v1 fixture: %v", err)
	}
	return b
}

func TestV1FixtureReads(t *testing.T) {
	b := readV1Fixture(t)
	if b.Name() != "cc" {
		t.Fatalf("fixture names workload %q, want cc", b.Name())
	}
	if b.Len() != 40_000 {
		t.Fatalf("fixture holds %d accesses, want 40000", b.Len())
	}
	// The fixture was recorded from the deterministic cc generator, so it
	// must match a fresh materialization access for access — v1 decoding
	// and generator determinism pinned together.
	w, err := ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	want, err := MaterializeContext(context.Background(), w.New(1), 40_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < b.Len(); i++ {
		if b.At(i) != want.At(i) {
			t.Fatalf("access %d: fixture %+v, generator %+v", i, b.At(i), want.At(i))
		}
	}
}

// TestV1FixtureConverts is the upgrade path for archived v1 files
// (tracedump -convert): a v1 file re-encoded to v2 replays bit-identically
// and lands much smaller (the compressed columnar layout is the reason v1
// writing died).
func TestV1FixtureConverts(t *testing.T) {
	b := readV1Fixture(t)
	var v2 bytes.Buffer
	if _, err := b.WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.FromSlash(v1Fixture))
	if err != nil {
		t.Fatal(err)
	}
	if int64(v2.Len())*4 > info.Size() {
		t.Fatalf("v2 re-encode is %d bytes vs %d v1 — the ≥4x compression claim broke", v2.Len(), info.Size())
	}
	rt, err := ReadTrace(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("re-reading converted v2: %v", err)
	}
	if rt.Name() != b.Name() || rt.Len() != b.Len() {
		t.Fatalf("converted trace is %q/%d, want %q/%d", rt.Name(), rt.Len(), b.Name(), b.Len())
	}
	for i := uint64(0); i < b.Len(); i++ {
		if rt.At(i) != b.At(i) {
			t.Fatalf("access %d diverged across v1→v2 conversion", i)
		}
	}
}

// The checked-in DPTR fixture does the same for the retired DPTR writer:
// 4096 accesses of the cc workload at seed 1, written by tracedump before
// DPTR writing was removed.
const dptrFixture = "testdata/cc-4k.dptr"

// readDPTRFixture returns the fixture's bytes and the generator's stream it
// must equal.
func readDPTRFixture(t *testing.T) (raw []byte, want *Buffer) {
	t.Helper()
	raw, err := os.ReadFile(dptrFixture)
	if err != nil {
		t.Fatal(err)
	}
	return raw, mustMaterialize(t, mustByName(t, "cc").New(1), 4096)
}

// TestDPTRFixtureReads: both readers of the DPTR fixture — ReadTrace, which
// materializes, and Open, the replay path — yield the generator's stream.
func TestDPTRFixtureReads(t *testing.T) {
	raw, want := readDPTRFixture(t)
	b, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	requireBuffersEqual(t, want, b)

	rd, err := Open(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rd.Name() != "cc" {
		t.Fatalf("Open names workload %q, want cc", rd.Name())
	}
	for i := uint64(0); i < want.Len(); i++ {
		if got := rd.Next(); got != want.At(i) {
			t.Fatalf("Open access %d: %+v, generator %+v", i, got, want.At(i))
		}
	}
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDPTRFixtureConverts: the fixture converted to v2 (tracedump -convert)
// reads back, through ReadTrace and through Open's streaming path, as the
// same buffer.
func TestDPTRFixtureConverts(t *testing.T) {
	raw, want := readDPTRFixture(t)
	b, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := b.WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadTrace(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("re-reading converted v2: %v", err)
	}
	requireBuffersEqual(t, want, rt)

	rd, err := Open(bytes.NewReader(v2.Bytes()), int64(v2.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.(*StreamReader); !ok {
		t.Fatalf("Open served a v2 file through %T, want a streaming *StreamReader", rd)
	}
	for i := uint64(0); i < want.Len(); i++ {
		if got := rd.Next(); got != want.At(i) {
			t.Fatalf("streamed access %d: %+v, want %+v", i, got, want.At(i))
		}
	}
}
