package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/faultio"
)

// recordedTrace encodes a small DPTR trace with a one-byte name, so record
// i's flags byte sits at a computable offset: 11-byte header + i*24 + 20.
func recordedTrace(n int) []byte {
	b := NewBuffer("x", n)
	for i := 0; i < n; i++ {
		b.Append(Access{PC: uint64(i + 1), Addr: 0x1000, Gap: 1, Write: i%2 == 0})
	}
	return encodeDPTR(b)
}

const (
	testHdrLen   = 4 + 6 + 1 // magic + version/flags/namelen + name "x"
	testFlagsOff = 20
	testPadOff   = 21
)

// streamedTrace returns a DPBF v2 file of two chunks and a reader over it
// whose reads of the second chunk fail (faultio.ErrInjected), with the
// index intact: OpenChunked accepts the file and the replay dies midway.
func streamedTrace(t *testing.T) (failing failingReaderAt, size int64) {
	t.Helper()
	var v2 bytes.Buffer
	if _, err := testBufferN(t, v2ChunkLen+10).WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}
	ct, err := OpenChunked(bytes.NewReader(v2.Bytes()), int64(v2.Len()))
	if err != nil {
		t.Fatal(err)
	}
	second := int64(ct.index[1].offset)
	return failingReaderAt{r: bytes.NewReader(v2.Bytes()), lo: second, hi: second + 1}, int64(v2.Len())
}

// TestOpenRejectsTruncatedRecord: a DPTR trace cut mid-record (crashed
// writer, partial copy) is refused with the failing record's index instead
// of replaying a short or padded stream.
func TestOpenRejectsTruncatedRecord(t *testing.T) {
	raw := recordedTrace(4)
	cut := raw[:testHdrLen+2*recordSize+7] // record 2 ends mid-record
	_, err := openBytes(cut)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Open err = %v, want a record-2 truncation error", err)
	}
	if !strings.Contains(err.Error(), "record 2") {
		t.Errorf("Open err = %v, want the failing record index (2)", err)
	}
}

// TestReplayerLatchesMidStreamReadError: an I/O error under a streaming
// replay (dying mount) must latch, stick, and stop advancing the stream;
// the same error under a DPTR file fails Open, which reads the file whole.
func TestReplayerLatchesMidStreamReadError(t *testing.T) {
	failing, size := streamedTrace(t)
	rp, err := Open(failing, size)
	if err != nil {
		t.Fatal(err)
	}
	var last Access
	for i := 0; i < v2ChunkLen; i++ {
		last = rp.Next()
	}
	if err := rp.Err(); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	got := rp.Next()
	if !errors.Is(rp.Err(), faultio.ErrInjected) {
		t.Fatalf("Err() = %v, want wrapped faultio.ErrInjected", rp.Err())
	}
	if got != last {
		t.Errorf("post-error Next() = %+v, want last good access %+v", got, last)
	}
	if again := rp.Next(); again != last || rp.Err() == nil {
		t.Errorf("latched reader moved on: %+v (err %v)", again, rp.Err())
	}

	raw := recordedTrace(4)
	dying := failingReaderAt{r: bytes.NewReader(raw), lo: testHdrLen + recordSize, hi: int64(len(raw))}
	if _, err := Open(dying, int64(len(raw))); !errors.Is(err, faultio.ErrInjected) {
		t.Errorf("DPTR Open err = %v, want wrapped faultio.ErrInjected", err)
	}
}

// TestReplayerRejectsReservedFlagBits: flipped bits in a record's flags
// byte (bits 2..7 are reserved) must be refused.
func TestReplayerRejectsReservedFlagBits(t *testing.T) {
	raw := recordedTrace(3)
	raw[testHdrLen+recordSize+testFlagsOff] |= 0x80
	_, err := openBytes(raw)
	if err == nil || !strings.Contains(err.Error(), "reserved record flag bits") {
		t.Fatalf("Open err = %v, want reserved-flag-bits rejection", err)
	}
}

// TestReplayerRejectsNonzeroPad: a corrupted pad byte means the record is
// not one the format's writer produced; it must be refused.
func TestReplayerRejectsNonzeroPad(t *testing.T) {
	raw := recordedTrace(3)
	raw[testHdrLen+recordSize+testPadOff] = 1
	_, err := openBytes(raw)
	if err == nil || !strings.Contains(err.Error(), "nonzero pad bytes") {
		t.Fatalf("Open err = %v, want nonzero-pad rejection", err)
	}
}

// TestReadTraceRejectsCorruptRecords: the whole-file reader validates every
// record, over a stream that is cut short, corrupted or dying.
func TestReadTraceRejectsCorruptRecords(t *testing.T) {
	raw := recordedTrace(3)
	cases := map[string]struct {
		r    io.Reader
		want string
	}{
		"truncated mid-record": {
			faultio.Truncate(bytes.NewReader(raw), int64(testHdrLen+recordSize+5)),
			"truncated",
		},
		"reserved flag bits": {
			faultio.NewCorruptReader(bytes.NewReader(raw), int64(testHdrLen+testFlagsOff)),
			"reserved record flag bits",
		},
		"nonzero pad": {
			faultio.NewCorruptReader(bytes.NewReader(raw), int64(testHdrLen+2*recordSize+testPadOff)),
			"nonzero pad bytes",
		},
		"read error": {
			faultio.NewFailingReader(bytes.NewReader(raw), int64(testHdrLen+recordSize), nil),
			"record 1",
		},
	}
	for name, tc := range cases {
		_, err := ReadTrace(tc.r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}
}

// TestReadBufferSurfacesInjectedFaults: DPBF decoding over a dying or
// truncated source must fail cleanly, naming the array being read.
func TestReadBufferSurfacesInjectedFaults(t *testing.T) {
	raw := encodeV1(mustMaterialize(t, mustByName(t, "cc").New(1), 64))

	if _, err := ReadBuffer(faultio.Truncate(bytes.NewReader(raw), int64(len(raw)-7))); err == nil {
		t.Error("truncated DPBF accepted")
	}
	_, err := ReadBuffer(faultio.NewFailingReader(bytes.NewReader(raw), int64(len(raw)/2), nil))
	if !errors.Is(err, faultio.ErrInjected) {
		t.Errorf("mid-read failure: err = %v, want wrapped faultio.ErrInjected", err)
	}
}

// TestMaterializeSurfacesGeneratorError: materializing from a source that
// dies mid-stream must fail instead of returning a buffer padded with the
// repeated final access.
func TestMaterializeSurfacesGeneratorError(t *testing.T) {
	failing, size := streamedTrace(t)
	rp, err := Open(failing, size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaterializeContext(context.Background(), rp, v2ChunkLen+10); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Materialize over a dying replay: err = %v, want wrapped faultio.ErrInjected", err)
	}
}

// TestMaterializeEmptyBufferReader: draining a reader over an empty buffer
// must fail (errEmptyTrace) rather than yield zero-valued accesses.
func TestMaterializeEmptyBufferReader(t *testing.T) {
	rd := NewBuffer("empty", 0).Reader()
	if _, err := MaterializeContext(context.Background(), rd, 4); err == nil {
		t.Fatal("Materialize over an empty buffer succeeded")
	}
	if !errors.Is(rd.Err(), errEmptyTrace) {
		t.Errorf("Err() = %v, want errEmptyTrace", rd.Err())
	}
}

// TestRecordToFullDisk: recording onto a full disk must return the write
// error instead of reporting a successful capture.
func TestRecordToFullDisk(t *testing.T) {
	w := faultio.NewFailingWriter(nil, 1000, nil)
	err := RecordV2(w, mustByName(t, "cc").New(1), 3*v2ChunkLen)
	if !errors.Is(err, faultio.ErrNoSpace) {
		t.Fatalf("err = %v, want wrapped faultio.ErrNoSpace", err)
	}
}

// TestBufferWriteToFullDisk: DPBF dumps must surface the sink error too.
func TestBufferWriteToFullDisk(t *testing.T) {
	b := mustMaterialize(t, mustByName(t, "cc").New(1), 3*v2ChunkLen)
	w := faultio.NewFailingWriter(nil, 1000, nil)
	if _, err := b.WriteToV2(w); !errors.Is(err, faultio.ErrNoSpace) {
		t.Fatalf("err = %v, want wrapped faultio.ErrNoSpace", err)
	}
}

// TestRecordAndMaterializeHonorCancellation: both drain loops must stop
// with the context's error when canceled before (or during) the drain.
func TestRecordAndMaterializeHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := mustByName(t, "cc").New(1)
	if err := RecordV2Context(ctx, io.Discard, g, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Errorf("RecordV2Context err = %v, want context.Canceled", err)
	}
	if _, err := MaterializeContext(ctx, g, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Errorf("MaterializeContext err = %v, want context.Canceled", err)
	}
}
