package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// openBytes opens an in-memory trace file through Open.
func openBytes(raw []byte) (ChunkReader, error) {
	return Open(bytes.NewReader(raw), int64(len(raw)))
}

// TestRecordReplayRoundTrip: a RecordV2 capture replays through Open
// access for access like the live generator.
func TestRecordReplayRoundTrip(t *testing.T) {
	w, err := ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	const n = 5000
	if err := RecordV2(&buf, w.New(9), n); err != nil {
		t.Fatal(err)
	}

	rp, err := openBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rp.Name() != "cc" {
		t.Errorf("replayed name %q, want cc", rp.Name())
	}
	ref := w.New(9)
	for i := 0; i < n; i++ {
		got, want := rp.Next(), ref.Next()
		if got != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if rp.Err() != nil {
		t.Fatal(rp.Err())
	}
}

// TestReplayLoops: whatever the format, Open's reader wraps to the first
// record at the end of the trace.
func TestReplayLoops(t *testing.T) {
	b := bufferOf("loop", Access{PC: 1, Addr: 0x1000}, Access{PC: 2, Addr: 0x1000}, Access{PC: 3, Addr: 0x1000})
	var v2 bytes.Buffer
	if _, err := b.WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"DPTR": encodeDPTR(b), "DPBF v1": encodeV1(b), "DPBF v2": v2.Bytes()} {
		rp, err := openBytes(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var pcs []uint64
		for i := 0; i < 7; i++ {
			pcs = append(pcs, rp.Next().PC)
		}
		want := []uint64{1, 2, 3, 1, 2, 3, 1}
		for i := range want {
			if pcs[i] != want[i] {
				t.Fatalf("%s: looped sequence %v, want %v", name, pcs, want)
			}
		}
		if rp.Err() != nil {
			t.Fatalf("%s: %v", name, rp.Err())
		}
	}
}

// TestReplayerRejectsGarbage: input that is no trace file at all is
// refused by Open and ReadTrace alike.
func TestReplayerRejectsGarbage(t *testing.T) {
	for name, raw := range map[string][]byte{
		"garbage":      []byte("not a trace file"),
		"empty":        nil,
		"short":        []byte("DP"),
		"magic only":   []byte("DPTR"),
		"bare v1 head": []byte("DPBF\x01\x00"),
	} {
		if _, err := openBytes(raw); err == nil {
			t.Errorf("%s: Open accepted", name)
		}
		if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: ReadTrace accepted", name)
		}
	}
}

// TestReplayerRejectsWrongVersion: a future DPTR or DPBF version is
// refused, never guessed at.
func TestReplayerRejectsWrongVersion(t *testing.T) {
	dptr := encodeDPTR(bufferOf("v", Access{PC: 1}))
	dptr[4] = 99 // bump the version field
	dpbf := encodeV1(bufferOf("v", Access{PC: 1}))
	dpbf[4] = 7
	for name, raw := range map[string][]byte{"DPTR": dptr, "DPBF": dpbf} {
		if _, err := openBytes(raw); err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("%s: Open err = %v, want an unsupported-version rejection", name, err)
		}
		if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: ReadTrace accepted a future version", name)
		}
	}
}

// TestOpenEmptyTrace: a structurally valid trace with no records opens,
// and its reader latches errEmptyTrace instead of inventing accesses.
func TestOpenEmptyTrace(t *testing.T) {
	empty := NewBuffer("e", 0)
	var v2 bytes.Buffer
	if _, err := empty.WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"DPTR": encodeDPTR(empty), "DPBF v1": encodeV1(empty), "DPBF v2": v2.Bytes()} {
		rp, err := openBytes(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rp.Next(); got != (Access{}) {
			t.Errorf("%s: Next = %+v, want the zero access", name, got)
		}
		if !errors.Is(rp.Err(), errEmptyTrace) {
			t.Errorf("%s: Err = %v, want errEmptyTrace", name, rp.Err())
		}
	}
}

// Property: any access round-trips bit-exactly through the DPTR record
// format and through RecordV2, read back by Open.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(pc, addr uint64, gap uint32, w, d bool) bool {
		a := Access{PC: pc, Addr: arch.VAddr(addr), Gap: gap, Write: w, Dependent: d}
		var v2 bytes.Buffer
		if err := RecordV2(&v2, bufferOf("p", a).Reader(), 1); err != nil {
			return false
		}
		for _, raw := range [][]byte{encodeDPTR(bufferOf("p", a)), v2.Bytes()} {
			rp, err := openBytes(raw)
			if err != nil || rp.Next() != a || rp.Err() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
