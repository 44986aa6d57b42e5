package trace

import (
	"bytes"
	"testing"

	"repro/internal/arch"
)

// openSeeds returns n accesses of a synthetic workload in each of the
// three trace formats, giving the fuzzer structurally valid corpora to
// mutate from.
func openSeeds(f *testing.F, name string, n uint64) (dptr, v1, v2 []byte) {
	f.Helper()
	b := mustMaterialize(f, mustByName(f, name).New(1), n)
	var buf bytes.Buffer
	if _, err := b.WriteToV2(&buf); err != nil {
		f.Fatal(err)
	}
	return encodeDPTR(b), encodeV1(b), buf.Bytes()
}

// FuzzReplayer feeds arbitrary bytes to Open, the replay opener, seeded
// with all three formats. Open must never panic or spin: it either rejects
// the input or returns a reader that replays it, latching the first read
// or decode error in Err while the Generator contract keeps returning the
// last good access. Whatever ReadTrace accepts, Open must replay
// identically, wrapping at the end.
func FuzzReplayer(f *testing.F) {
	for _, name := range []string{"cc", "sssp"} {
		dptr, v1, v2 := openSeeds(f, name, 16)
		for _, seed := range [][]byte{dptr, v1, v2} {
			f.Add(seed)
			f.Add(seed[:len(seed)-5]) // truncated mid-record or mid-trailer
		}
	}
	f.Add([]byte(nil))
	f.Add([]byte("DPTR"))                                                        // magic only
	f.Add([]byte("DPTR\x01\x00\x00\x00\x00\x00"))                                // empty name, no records
	f.Add([]byte("DPTR\x02\x00\x00\x00\x00\x00"))                                // unsupported version
	f.Add([]byte("DPTR\x01\x00\x01\x00\x00\x00"))                                // reserved header flags set
	f.Add([]byte("DPTR\x01\x00\x00\x00\xff\xffshort"))                           // name length beyond data
	f.Add(append([]byte("DPTR\x01\x00\x00\x00\x02\x00cc"), make([]byte, 24)...)) // one zero record
	f.Add([]byte("DPBF\x02\x00\x00\x00\x00\x00"))                                // truncated v2 header

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := ReadTrace(bytes.NewReader(data))
		rp, err := openBytes(data)
		if err != nil {
			if wantErr == nil && want.Len() > 0 {
				t.Fatalf("Open rejects a trace ReadTrace accepts: %v", err)
			}
			return
		}
		for i := uint64(0); i < 64; i++ {
			a := rp.Next()
			if rp.Err() != nil {
				// Errors must latch: every subsequent Next repeats the
				// last good access without clearing Err.
				if got := rp.Next(); got != a {
					t.Errorf("Next after latched error changed: %+v then %+v", a, got)
				}
				if rp.Err() == nil {
					t.Error("Err cleared by Next after latching")
				}
				if wantErr == nil && want.Len() > 0 {
					t.Fatalf("replay of a trace ReadTrace accepts latched %v", rp.Err())
				}
				return
			}
			if wantErr == nil && a != want.At(i%want.Len()) {
				t.Fatalf("access %d: Open %+v, ReadTrace %+v", i, a, want.At(i%want.Len()))
			}
		}
	})
}

// FuzzBufferCodec feeds arbitrary bytes through the DPBF buffer parser. The
// decoder must never panic and never allocate proportionally to an
// unvalidated count; any buffer it does accept must survive a re-encode →
// re-decode round trip unchanged.
func FuzzBufferCodec(f *testing.F) {
	for _, name := range []string{"cc", "sssp"} {
		w, err := ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		v1 := encodeV1(mustMaterialize(f, w.New(1), 16))
		f.Add(v1)
		f.Add(v1[:len(v1)-5]) // truncated mid-array
	}
	f.Add([]byte(nil))
	f.Add([]byte("DPBF"))                           // magic only
	f.Add([]byte("DPBF\x01\x00\x00\x00\x00\x00"))   // empty name, no count
	f.Add([]byte("DPBF\x02\x00\x00\x00\x00\x00"))   // v2 dispatch, truncated header
	f.Add([]byte("DPBF\x03\x00\x00\x00\x00\x00"))   // unsupported version
	f.Add([]byte("DPBF\x01\x00\x01\x00\x00\x00"))   // reserved header flags
	f.Add([]byte("DPBF\x01\x00\x00\x00\xff\xffxx")) // name length beyond data
	f.Add(append([]byte("DPBF\x01\x00\x00\x00\x00\x00"),
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)) // absurd count

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBuffer(bytes.NewReader(data))
		if err != nil {
			return
		}
		b2, err := ReadBuffer(bytes.NewReader(encodeV1(b)))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded buffer failed: %v", err)
		}
		if b2.Name() != b.Name() || b2.Len() != b.Len() {
			t.Fatalf("round trip changed identity: (%q, %d) -> (%q, %d)",
				b.Name(), b.Len(), b2.Name(), b2.Len())
		}
		for i := uint64(0); i < b.Len(); i++ {
			if b.At(i) != b2.At(i) {
				t.Fatalf("round trip changed access %d: %+v -> %+v", i, b.At(i), b2.At(i))
			}
		}
	})
}

// FuzzBufferCodecV2 feeds arbitrary bytes through both DPBF v2 readers (the
// sequential materializer and the random-access opener). Neither may panic
// or over-allocate; any input both accept must decode identically through
// both, and an accepted buffer must survive a v2 re-encode → re-decode
// round trip unchanged.
func FuzzBufferCodecV2(f *testing.F) {
	for _, name := range []string{"cc", "sssp"} {
		w, err := ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := mustMaterialize(f, w.New(1), 16).WriteToV2(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-5]) // truncated inside the trailer
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncated mid-chunk
		f.Add(buf.Bytes()[:10])          // header prefix only
		corrupt := bytes.Clone(buf.Bytes())
		corrupt[len(corrupt)/2] ^= 0x40 // flipped payload byte
		f.Add(corrupt)
	}
	var empty bytes.Buffer
	if _, err := NewBuffer("e", 0).WriteToV2(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("DPBF\x02\x00\x00\x00\x00\x00")) // truncated v2 header
	f.Add([]byte("DPBF\x02\x00\x02\x00\x00\x00")) // reserved header flag set

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBuffer(bytes.NewReader(data))
		ct, ctErr := OpenChunked(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			// OpenChunked validates strictly less than a full sequential
			// decode (it never inflates payloads), so it may accept what
			// ReadBuffer rejects — but its stream must then latch an error
			// rather than fabricate accesses, which the StreamReader
			// latch-and-repeat contract below covers implicitly.
			if ctErr == nil && ct.Len() > 0 {
				sr := ct.NewReader()
				for i := 0; i < 8; i++ {
					a := sr.Next()
					if sr.Err() != nil {
						if got := sr.Next(); got != a {
							t.Errorf("Next after latched error changed: %+v then %+v", a, got)
						}
						break
					}
				}
			}
			return
		}
		if b.Len() > 0 && ctErr != nil {
			t.Fatalf("ReadBuffer accepted a v2 file OpenChunked rejects: %v", ctErr)
		}
		if ctErr == nil {
			sr := ct.NewReader()
			for i := uint64(0); i < b.Len(); i++ {
				if a, want := sr.Next(), b.At(i); a != want {
					t.Fatalf("stream access %d: got %+v want %+v (stream err %v)", i, a, want, sr.Err())
				}
			}
		}
		var out bytes.Buffer
		if _, err := b.WriteToV2(&out); err != nil {
			t.Fatalf("re-encoding an accepted buffer failed: %v", err)
		}
		b2, err := ReadBuffer(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded buffer failed: %v", err)
		}
		if b2.Name() != b.Name() || b2.Len() != b.Len() {
			t.Fatalf("round trip changed identity: (%q, %d) -> (%q, %d)",
				b.Name(), b.Len(), b2.Name(), b2.Len())
		}
		for i := uint64(0); i < b.Len(); i++ {
			if b.At(i) != b2.At(i) {
				t.Fatalf("round trip changed access %d: %+v -> %+v", i, b.At(i), b2.At(i))
			}
		}
	})
}

// FuzzRoundTrip checks that any access record written by the test DPTR
// encoder reads back losslessly through Open.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x400123), uint64(0x7fff_0000_1000), uint32(3), true, false)
	f.Add(uint64(0), uint64(0), uint32(0), false, false)
	f.Add(^uint64(0), ^uint64(0), ^uint32(0), true, true)

	f.Fuzz(func(t *testing.T, pc, addr uint64, gap uint32, write, dep bool) {
		in := Access{PC: pc, Addr: arch.VAddr(addr), Gap: gap, Write: write, Dependent: dep}
		rp, err := openBytes(encodeDPTR(bufferOf("fuzz", in)))
		if err != nil {
			t.Fatal(err)
		}
		if got := rp.Next(); rp.Err() != nil || got != in {
			t.Fatalf("round trip: wrote %+v, read %+v (err %v)", in, got, rp.Err())
		}
		if rp.Name() != "fuzz" {
			t.Fatalf("name %q, want %q", rp.Name(), "fuzz")
		}
	})
}
