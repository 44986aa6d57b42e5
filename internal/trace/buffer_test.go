package trace

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/pool"
)

// TestMaterializeMatchesLive: replaying a materialized buffer must be
// bit-identical to consuming the live generator — the tentpole invariant
// that lets the runner substitute buffers for regeneration.
func TestMaterializeMatchesLive(t *testing.T) {
	const n = 20_000
	w, err := ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	b := mustMaterialize(t, w.New(7), n)
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	if b.Name() != w.New(7).Name() {
		t.Errorf("Name = %q, want %q", b.Name(), w.New(7).Name())
	}
	live := w.New(7)
	rd := b.Reader()
	for i := 0; i < n; i++ {
		if got, want := rd.Next(), live.Next(); got != want {
			t.Fatalf("access %d: buffer %+v, live %+v", i, got, want)
		}
	}
}

// TestBufferPackedFlagsRoundTrip: the Write/Dependent bits share one packed
// byte; every combination must survive Append → At unchanged.
func TestBufferPackedFlagsRoundTrip(t *testing.T) {
	cases := []Access{
		{PC: 0x400000, Addr: 0x1000, Gap: 1},
		{PC: 0x400008, Addr: 0x2000, Gap: 2, Write: true},
		{PC: 0x400010, Addr: 0x3000, Gap: 3, Dependent: true},
		{PC: 0x400018, Addr: 0x4000, Gap: 4, Write: true, Dependent: true},
		{PC: ^uint64(0), Addr: arch.VAddr(^uint64(0)), Gap: ^uint32(0), Write: true, Dependent: true},
		{},
	}
	b := NewBuffer("packed", len(cases))
	for _, a := range cases {
		b.Append(a)
	}
	for i, want := range cases {
		if got := b.At(uint64(i)); got != want {
			t.Errorf("access %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestBufferCodecRoundTrip: a DPBF v1 dump must decode losslessly.
func TestBufferCodecRoundTrip(t *testing.T) {
	w, err := ByName("sssp")
	if err != nil {
		t.Fatal(err)
	}
	in := mustMaterialize(t, w.New(3), 5_000)
	out, err := ReadBuffer(bytes.NewReader(encodeV1(in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Name() != in.Name() || out.Len() != in.Len() {
		t.Fatalf("decoded (%q, %d), want (%q, %d)", out.Name(), out.Len(), in.Name(), in.Len())
	}
	for i := uint64(0); i < in.Len(); i++ {
		if out.At(i) != in.At(i) {
			t.Fatalf("access %d: decoded %+v, want %+v", i, out.At(i), in.At(i))
		}
	}
}

// TestBufferCodecRejects: corrupt inputs must error, never panic or
// over-allocate.
func TestBufferCodecRejects(t *testing.T) {
	good := encodeV1(mustMaterialize(t, mustByName(t, "cc").New(1), 16))
	cases := map[string][]byte{
		"empty":           nil,
		"bad magic":       []byte("NOPE\x01\x00\x00\x00\x00\x00"),
		"bad version":     []byte("DPBF\x07\x00\x00\x00\x00\x00"),
		"reserved header": []byte("DPBF\x01\x00\x01\x00\x00\x00"),
		"truncated":       good[:len(good)-3],
		"huge count": append([]byte("DPBF\x01\x00\x00\x00\x00\x00"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f),
	}
	for name, data := range cases {
		if _, err := ReadBuffer(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Reserved record-flag bits must be rejected too.
	raw := good
	raw[len(raw)-1] |= 0x80
	if _, err := ReadBuffer(bytes.NewReader(raw)); err == nil {
		t.Error("reserved record flag bits accepted")
	}
}

// TestBufferReaderWrapsAndForks: a reader wraps at the end of the buffer,
// and forked readers advance independently.
func TestBufferReaderWrapsAndForks(t *testing.T) {
	b := NewBuffer("wrap", 3)
	for i := 0; i < 3; i++ {
		b.Append(Access{PC: uint64(i)})
	}
	rd := b.Reader()
	for range b.Len() {
		rd.Next()
	}
	// At the end: the next access wraps to 0.
	if got := rd.Next(); got.PC != 0 {
		t.Errorf("wrap: got PC %d, want 0", got.PC)
	}

	f := rd.Fork()
	if got := rd.Next().PC; got != 1 {
		t.Errorf("original after fork: PC %d, want 1", got)
	}
	if got := f.Next().PC; got != 1 {
		t.Errorf("fork: PC %d, want 1 (independent cursor)", got)
	}

	empty := NewBuffer("empty", 0).Reader()
	if got := empty.Next(); got != (Access{}) {
		t.Errorf("empty buffer: got %+v, want zero access", got)
	}
}

// TestMixGenFork: the synthetic generators' Fork must yield an independent
// stream that continues identically to the original.
func TestMixGenFork(t *testing.T) {
	g := mustByName(t, "canneal").New(11)
	fg, ok := g.(ForkableGenerator)
	if !ok {
		t.Fatal("synthetic workload generator does not implement ForkableGenerator")
	}
	for i := 0; i < 1_000; i++ {
		g.Next()
	}
	f := fg.Fork()
	for i := 0; i < 1_000; i++ {
		a, b := g.Next(), f.Next()
		if a != b {
			t.Fatalf("access %d after fork: original %+v, fork %+v", i, a, b)
		}
	}
}

// TestReadTraceSniffsBothFormats: ReadTrace must yield the same buffer from
// a DPTR record stream and from DPBF dumps (v1 and v2) of the same
// accesses.
func TestReadTraceSniffsBothFormats(t *testing.T) {
	const n = 2_000
	want := mustMaterialize(t, mustByName(t, "cc").New(5), n)
	var v2 bytes.Buffer
	if _, err := want.WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"DPTR": encodeDPTR(want), "DPBF": encodeV1(want), "DPBF v2": v2.Bytes()} {
		got, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Name() != want.Name() || got.Len() != want.Len() {
			t.Fatalf("%s: (%q, %d), want (%q, %d)", name, got.Name(), got.Len(), want.Name(), want.Len())
		}
		for i := uint64(0); i < n; i++ {
			if got.At(i) != want.At(i) {
				t.Fatalf("%s: access %d: %+v, want %+v", name, i, got.At(i), want.At(i))
			}
		}
	}

	if _, err := ReadTrace(bytes.NewReader([]byte("????junk"))); err == nil {
		t.Error("unrecognized magic accepted")
	}
}

func mustByName(t testing.TB, name string) Workload {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustMaterialize(t testing.TB, g Generator, n uint64) *Buffer {
	t.Helper()
	b, err := MaterializeContext(context.Background(), g, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BenchmarkMaterialize prices building a buffer from the live generator —
// the once-per-workload cost the runner pays up front.
func BenchmarkMaterialize(b *testing.B) {
	w := mustByName(b, "cc")
	const n = 100_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaterializeContext(context.Background(), w.New(1), n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/access")
}

// BenchmarkBufferReplay prices reading one access back out of a shared
// buffer — the per-access cost every consumer pays instead of regenerating.
func BenchmarkBufferReplay(b *testing.B) {
	rd := mustMaterialize(b, mustByName(b, "cc").New(1), 100_000).Reader()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Next()
	}
}

// BenchmarkLiveGenerate is the comparison point for BenchmarkBufferReplay:
// what an access costs when produced by the synthetic generator directly.
func BenchmarkLiveGenerate(b *testing.B) {
	g := mustByName(b, "cc").New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// TestReleasedBufferPanics: a pooled buffer's columns go back to its pool
// on Release, a later materialization reuses them, and a reader of the
// released buffer panics instead of reading the new trace.
func TestReleasedBufferPanics(t *testing.T) {
	w, err := ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(2)
	b, err := MaterializePooled(context.Background(), w.New(7), 5_000, p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Recycled() {
		t.Error("the first buffer of an empty pool reads as recycled")
	}
	rd := b.Reader()
	rd.Next()
	b.Release()
	again, err := MaterializePooled(context.Background(), w.New(8), 5_000, p)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Recycled() {
		t.Error("a buffer materialized after a release did not reuse its columns")
	}
	want := mustMaterialize(t, w.New(8), 5_000)
	for i := uint64(0); i < want.Len(); i++ {
		if again.At(i) != want.At(i) {
			t.Fatalf("recycled buffer access %d = %+v, want %+v", i, again.At(i), want.At(i))
		}
	}
	for name, read := range map[string]func(){
		"Next":      func() { rd.Next() },
		"NextChunk": func() { rd.NextChunk(64) },
		"Reader":    func() { b.Reader().Next() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released buffer did not panic", name)
				}
			}()
			read()
		}()
	}
}
