package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/trace"
)

// materializeWorkload captures n accesses of a named workload into a
// columnar buffer (the input the machine and the reference replay from).
func materializeWorkload(tb testing.TB, name string, seed, n uint64) *trace.Buffer {
	tb.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := trace.MaterializeContext(context.Background(), w.New(seed), n)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// checkpointBytes serializes the machine's full warm state, the strongest
// equality the simulator can express: every TLB entry, cache block,
// page-table node, predictor table and counter must match bit for bit.
func checkpointBytes(tb testing.TB, s *System) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf, "batch-diff"); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunBufferMatchesStep is the batched loop's correctness contract:
// feeding the same trace through Run must leave the machine in a state
// bit-identical to the reference stepper — same Result, same checkpoint
// image, same interval samples — across predictor, sampler and
// interval-observer configurations (the sampler/interval cases exercise
// the segment splitting that hoists the tick checks out of the inner
// loop). Run is driven twice: from the buffer's own chunks, and through a
// plain Generator whose records it copies into its scratch chunk.
func TestRunBufferMatchesStep(t *testing.T) {
	// Odd warm/measure counts so chunk boundaries never line up with
	// ctxCheckStride, and the run wraps the buffer several times.
	const bufLen, warm, meas = 10_007, 20_011, 30_031
	scenarios := []struct {
		name string
		ckpt bool // instrumented machines refuse to checkpoint
		// setup returns the machine's interval recorder, if it has one.
		setup func(t *testing.T, s *System) *obs.IntervalRecorder
	}{
		{"baseline", true, func(t *testing.T, s *System) *obs.IntervalRecorder { return nil }},
		{"dp-predictor", true, func(t *testing.T, s *System) *obs.IntervalRecorder {
			dp, err := newTestDPPred(s)
			if err != nil {
				t.Fatal(err)
			}
			s.SetTLBPredictor(dp)
			return nil
		}},
		{"characterization", false, func(t *testing.T, s *System) *obs.IntervalRecorder {
			// Prime periods keep the sampling points and the intervals
			// misaligned with every chunk boundary and with each other.
			characterize(t, s, 4099)
			rec := obs.NewIntervalRecorder(7001)
			s.AttachObserver(&obs.Observer{Interval: rec})
			return rec
		}},
		{"intervals", false, func(t *testing.T, s *System) *obs.IntervalRecorder {
			// Every other warmup tick falls exactly on a segment's last
			// access (a ctxCheckStride boundary), the rest mid-segment.
			rec := obs.NewIntervalRecorder(ctxCheckStride / 2)
			s.AttachObserver(&obs.Observer{Interval: rec})
			return rec
		}},
	}
	for _, wl := range []string{"sssp", "mcf"} {
		buf := materializeWorkload(t, wl, 7, bufLen)
		for _, sc := range scenarios {
			t.Run(wl+"/"+sc.name, func(t *testing.T) {
				refSys := MustNew(smallConfig())
				refRec := sc.setup(t, refSys)
				rd := buf.Reader()
				if err := refRun(refSys, rd, warm); err != nil {
					t.Fatal(err)
				}
				refSys.StartMeasurement()
				if err := refRun(refSys, rd, meas); err != nil {
					t.Fatal(err)
				}

				for _, chunked := range []bool{true, false} {
					batchSys := MustNew(smallConfig())
					batchRec := sc.setup(t, batchSys)
					var g trace.Generator = buf.Reader()
					if !chunked {
						g = genOnly{g}
					}
					if err := batchSys.Run(g, warm); err != nil {
						t.Fatal(err)
					}
					batchSys.StartMeasurement()
					if err := batchSys.Run(g, meas); err != nil {
						t.Fatal(err)
					}

					if a, b := refSys.Result(), batchSys.Result(); !reflect.DeepEqual(a, b) {
						t.Errorf("chunked=%v: results diverged:\n  ref:   %+v\n  batch: %+v", chunked, a, b)
					}
					if refRec != nil {
						a, b := refRec.Samples(), batchRec.Samples()
						if len(a) != (warm+meas)/int(refRec.Every) {
							t.Errorf("reference recorded %d interval samples, want %d", len(a), (warm+meas)/int(refRec.Every))
						}
						if !reflect.DeepEqual(a, b) {
							t.Errorf("chunked=%v: interval samples diverged:\n  ref:   %+v\n  batch: %+v", chunked, a, b)
						}
					}
					if sc.ckpt {
						if a, b := checkpointBytes(t, refSys), checkpointBytes(t, batchSys); !bytes.Equal(a, b) {
							t.Errorf("chunked=%v: checkpoints diverged (%d vs %d bytes)", chunked, len(a), len(b))
						}
					}
				}
			})
		}
	}
}

// TestRunBufferStreamedV2MatchesStep closes the loop end to end: a trace
// round-tripped through the compressed v2 format and replayed chunk by
// chunk through the batched loop must match the reference replay of the
// in-memory original.
func TestRunBufferStreamedV2MatchesStep(t *testing.T) {
	const bufLen, n = 10_007, 25_013
	buf := materializeWorkload(t, "cc", 11, bufLen)
	var enc bytes.Buffer
	if _, err := buf.WriteToV2(&enc); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.OpenChunked(bytes.NewReader(enc.Bytes()), int64(enc.Len()))
	if err != nil {
		t.Fatal(err)
	}

	refSys := MustNew(smallConfig())
	refSys.StartMeasurement()
	if err := refRun(refSys, buf.Reader(), n); err != nil {
		t.Fatal(err)
	}
	batchSys := MustNew(smallConfig())
	batchSys.StartMeasurement()
	if err := batchSys.RunBuffer(ct.NewReader(), n); err != nil {
		t.Fatal(err)
	}
	if a, b := refSys.Result(), batchSys.Result(); !reflect.DeepEqual(a, b) {
		t.Errorf("results diverged:\n  ref:   %+v\n  batch: %+v", a, b)
	}
	if a, b := checkpointBytes(t, refSys), checkpointBytes(t, batchSys); !bytes.Equal(a, b) {
		t.Errorf("checkpoints diverged (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRunBufferEmptySource: an empty trace must fail the run with exactly
// the error the reference reports (the empty chunk falls back to the
// latched zero access that Next returns).
func TestRunBufferEmptySource(t *testing.T) {
	empty := trace.NewBuffer("empty", 0)
	refErr := refRun(MustNew(smallConfig()), empty.Reader(), 100)
	batchErr := MustNew(smallConfig()).RunBuffer(empty.Reader(), 100)
	if refErr == nil || batchErr == nil {
		t.Fatalf("empty trace accepted: ref=%v batch=%v", refErr, batchErr)
	}
	if refErr.Error() != batchErr.Error() {
		t.Errorf("error mismatch:\n  ref:   %v\n  batch: %v", refErr, batchErr)
	}
}

// TestRunBufferContextCanceled: a run over a chunk source stops at a
// chunk boundary with the canceled position in the error.
func TestRunBufferContextCanceled(t *testing.T) {
	buf := materializeWorkload(t, "sssp", 3, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := MustNew(smallConfig()).RunContext(ctx, buf.Reader(), 1<<20)
	if err == nil {
		t.Fatal("canceled context did not stop the run")
	}
	if want := fmt.Sprintf("sim: canceled at access 0 of %d: %v", 1<<20, context.Canceled); err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// TestMultiChunkedMatchesPerAccess: RunTenants, which feeds segments
// of columnar chunks through runBatch, must be bit-identical to the
// reference driver that round-robins one access at a time through the
// reference stepper — same scheduling, same unmap injection, same
// shootdowns, same Result and checkpoint bytes — and must leave every
// tenant's generator exactly where the reference leaves it. The 1c×3t
// machine runs long single-core segments whose quantum ends and unmap
// points fall mid-chunk; 2c×1t runs them next to an idle core; 2c×3t
// interleaves one-access segments. Run is driven from chunk readers and
// from plain generators, over two calls so the schedule carries across.
func TestMultiChunkedMatchesPerAccess(t *testing.T) {
	bufs := []*trace.Buffer{
		materializeWorkload(t, "sssp", 1, 5003),
		materializeWorkload(t, "cc", 2, 5003),
		materializeWorkload(t, "mcf", 3, 5003),
	}
	const warm, meas = 9_001, 21_010
	for _, top := range []struct{ cores, tenants int }{{1, 3}, {2, 1}, {2, 3}} {
		mc := MultiConfig{
			Machine:    smallConfig(),
			Cores:      top.cores,
			Tenants:    top.tenants,
			Quantum:    1_001,
			Shootdown:  ShootdownFlushASID,
			UnmapEvery: 1_503,
		}
		run := func(drive func(*System, []trace.Generator, uint64) error, chunked bool) (*System, Result, []uint64) {
			m, err := NewMulti(mc)
			if err != nil {
				t.Fatal(err)
			}
			rds := make([]*trace.BufferReader, top.tenants)
			gens := make([]trace.Generator, top.tenants)
			for i := range gens {
				rds[i] = bufs[i].Reader()
				gens[i] = rds[i]
				if !chunked {
					gens[i] = genOnly{rds[i]}
				}
			}
			if err := drive(m, gens, warm); err != nil {
				t.Fatal(err)
			}
			m.StartMeasurement()
			if err := drive(m, gens, meas); err != nil {
				t.Fatal(err)
			}
			pos := make([]uint64, len(rds))
			for i, rd := range rds {
				pos[i] = rd.Pos()
			}
			return m, m.Result(), pos
		}
		rm, rr, rpos := run(refMultiRun, true)
		var rb bytes.Buffer
		if err := rm.WriteCheckpoint(&rb, "multi-diff"); err != nil {
			t.Fatal(err)
		}
		for _, chunked := range []bool{true, false} {
			name := fmt.Sprintf("%dc×%dt chunked=%v", top.cores, top.tenants, chunked)
			m, r, pos := run(runTenants, chunked)
			if !reflect.DeepEqual(rr, r) {
				t.Errorf("%s: results diverged:\n  ref: %+v\n  run: %+v", name, rr, r)
			}
			if r.Switches == 0 && top.tenants > top.cores || r.Unmaps == 0 {
				t.Errorf("%s: run did not exercise scheduling: %+v", name, r)
			}
			if !reflect.DeepEqual(rpos, pos) {
				t.Errorf("%s: generator positions %v, reference %v", name, pos, rpos)
			}
			var b bytes.Buffer
			if err := m.WriteCheckpoint(&b, "multi-diff"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rb.Bytes(), b.Bytes()) {
				t.Errorf("%s: checkpoints diverged (%d vs %d bytes)", name, rb.Len(), b.Len())
			}
		}
	}
}

// genOnly narrows a ChunkReader to the plain Generator interface, so a run
// fills its scratch chunk from Next.
type genOnly struct{ g trace.Generator }

func (w genOnly) Next() trace.Access { return w.g.Next() }
func (w genOnly) Name() string       { return w.g.Name() }

// TestBatchSteadyStateZeroAlloc: the batched inner loop must not allocate
// once the machine is warm — the whole point of draining columnar chunks
// is that the steady state runs allocation-free.
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	buf := materializeWorkload(t, "sssp", 5, 8192)
	s := MustNew(smallConfig())
	rd := buf.Reader()
	// Warm every structure and map every page the trace touches.
	if err := s.RunBuffer(rd, 64_000); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := s.RunBuffer(rd, 8192); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state RunBuffer allocated %.1f times per run, want 0", avg)
	}
}

// FuzzBatchVsStep feeds fuzzer-shaped access sequences through Run and
// through the reference stepper on two identical machines and requires
// identical final Results. VAs are masked to a small window so arbitrary
// bytes cannot exhaust physical memory, and PCs to a window that still
// spans many pages. The low 14 bits of n are the run length; the bits
// above draw the machine's predictor and instruments (fuzzInstruments).
// An uninstrumented pair must also leave bit-identical checkpoints; an
// instrumented one, which refuses to checkpoint, must record identical
// interval samples and histograms, so a tick or an observation the batched
// loop drops or moves shows.
func FuzzBatchVsStep(f *testing.F) {
	for _, wl := range []string{"sssp", "cc"} {
		b := materializeWorkload(f, wl, 1, 64)
		var raw []byte
		for i := uint64(0); i < b.Len(); i++ {
			a := b.At(i)
			var rec [18]byte
			binary.LittleEndian.PutUint64(rec[0:], a.PC)
			binary.LittleEndian.PutUint64(rec[8:], uint64(a.Addr))
			rec[16] = byte(a.Gap)
			if a.Write {
				rec[17] |= 1
			}
			if a.Dependent {
				rec[17] |= 2
			}
			raw = append(raw, rec[:]...)
		}
		f.Add(raw, uint64(300))
		if wl == "sssp" {
			// dpPred, accuracy, confusion, characterization and a
			// ctxCheckStride/2 interval over 9001 accesses.
			f.Add(raw, uint64(0b011111)<<fuzzRunBits|9001)
		} else {
			// dpPred, accuracy, a ctxCheckStride/2 interval and metrics
			// histograms over 9001 accesses.
			f.Add(raw, uint64(0b1010011)<<fuzzRunBits|9001)
		}
	}
	f.Add([]byte{}, uint64(10))
	f.Add(bytes.Repeat([]byte{0xAB}, 18*7), uint64(9001))

	f.Fuzz(func(t *testing.T, data []byte, n uint64) {
		nrec := len(data) / 18
		if nrec == 0 || nrec > 4096*3 {
			return
		}
		// Cap the run so one fuzz exec stays in the milliseconds: 16k
		// accesses cross several chunk boundaries and wrap small inputs
		// many times, which is where the interesting divergence would be.
		draw := n >> fuzzRunBits
		n &= 1<<fuzzRunBits - 1
		buf := trace.NewBuffer("fuzz", nrec)
		for i := 0; i < nrec; i++ {
			rec := data[i*18:]
			buf.Append(trace.Access{
				PC:        binary.LittleEndian.Uint64(rec) & 0x3F_FFFF,
				Addr:      arch.VAddr(binary.LittleEndian.Uint64(rec[8:]) & 0xFF_FFFF),
				Gap:       uint32(rec[16] & 0x3F),
				Write:     rec[17]&1 != 0,
				Dependent: rec[17]&2 != 0,
			})
		}

		refSys := MustNew(smallConfig())
		refRec, refReg, instrumented := fuzzInstruments(t, refSys, draw)
		refErr := refRun(refSys, buf.Reader(), n)
		batchSys := MustNew(smallConfig())
		batchRec, batchReg, _ := fuzzInstruments(t, batchSys, draw)
		batchErr := batchSys.RunBuffer(buf.Reader(), n)

		if (refErr == nil) != (batchErr == nil) {
			t.Fatalf("error presence diverged: ref=%v batch=%v", refErr, batchErr)
		}
		if refErr != nil {
			return
		}
		if a, b := refSys.Result(), batchSys.Result(); !reflect.DeepEqual(a, b) {
			t.Fatalf("results diverged:\n  ref:   %+v\n  batch: %+v", a, b)
		}
		if refRec != nil {
			if a, b := refRec.Samples(), batchRec.Samples(); !reflect.DeepEqual(a, b) {
				t.Fatalf("interval samples diverged (%d vs %d):\n  ref:   %+v\n  batch: %+v", len(a), len(b), a, b)
			}
		}
		if refReg != nil {
			if a, b := refReg.Histograms(), batchReg.Histograms(); !reflect.DeepEqual(a, b) {
				t.Fatalf("histograms diverged:\n  ref:   %+v\n  batch: %+v", a, b)
			}
		}
		if !instrumented {
			if a, b := checkpointBytes(t, refSys), checkpointBytes(t, batchSys); !bytes.Equal(a, b) {
				t.Fatal("checkpoints diverged")
			}
		}
	})
}

// fuzzRunBits is how many low bits of FuzzBatchVsStep's n are the run
// length.
const fuzzRunBits = 14

// fuzzInstruments attaches what draw selects to a fresh machine: bit 0 a
// dpPred TLB predictor, bit 1 accuracy grading, bit 2 confusion grading,
// bit 3 characterization (entry times from the first access), bits 4–5
// an interval recorder (none, every ctxCheckStride/2, every 1021 or every
// 97 accesses), and bit 6 a metrics registry (AttachMetrics, after the
// recorder's observer, so its histograms stay attached). It returns the
// recorder and the registry, if any, and whether any instrument is
// attached.
func fuzzInstruments(t *testing.T, s *System, draw uint64) (*obs.IntervalRecorder, *obs.Registry, bool) {
	t.Helper()
	if draw&1 != 0 {
		dp, err := newTestDPPred(s)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTLBPredictor(dp)
	}
	for bit, enable := range []func() error{s.EnableAccuracyTracking, s.EnableConfusionTracking} {
		if draw&(2<<bit) != 0 {
			if err := enable(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if draw&8 != 0 {
		characterize(t, s, 997)
	}
	var rec *obs.IntervalRecorder
	if every := []uint64{0, ctxCheckStride / 2, 1021, 97}[draw>>4&3]; every > 0 {
		rec = obs.NewIntervalRecorder(every)
		s.AttachObserver(&obs.Observer{Interval: rec})
	}
	var reg *obs.Registry
	if draw&64 != 0 {
		reg = obs.NewRegistry()
		s.AttachMetrics(reg)
	}
	return rec, reg, draw&0b1111110 != 0
}

// replayBenchBuffer builds the locality-heavy replay trace of
// BenchmarkRunBufferWarm: a handful of PC sites sweeping sequentially over
// a 16 KiB window — a hot kernel loop whose working set is L1-resident, so
// once warm every structure hits and the measurement isolates pure replay
// cost (chunk dispatch and the memoized run fast paths) from miss
// handling.
func replayBenchBuffer(tb testing.TB) *trace.Buffer {
	tb.Helper()
	const n = 1 << 16
	b := trace.NewBuffer("replay-warm", n)
	for i := 0; i < n; i++ {
		pc := 0x400000 + uint64(i&7)*4
		va := 0x10000000 + uint64(i*8)&(1<<14-1)
		b.Append(trace.Access{PC: pc, Addr: arch.VAddr(va), Gap: 1, Write: i&15 == 0})
	}
	return b
}

// BenchmarkRunBufferWarm: warm-machine replay of that buffer, drained in
// columnar chunks.
func BenchmarkRunBufferWarm(b *testing.B) {
	s := MustNew(DefaultConfig())
	buf := replayBenchBuffer(b)
	rd := buf.Reader()
	if err := s.RunBuffer(rd, buf.Len()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.RunBuffer(rd, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// TestRunAdvancesGeneratorExactly: a run draws exactly the records it
// simulates, whatever its source — a live mix (compared with a Forked
// twin that drew n records through Next), a BufferReader and a DPBF v2
// StreamReader (compared by Pos as well) — so a generator ends exactly n
// records ahead, which checkpoint splicing depends on. A multi-tenant run
// advances each tenant by exactly its tenantQuota share.
func TestRunAdvancesGeneratorExactly(t *testing.T) {
	const bufLen, n = 4_099, 10_007
	buf := materializeWorkload(t, "cc", 5, bufLen)
	var enc bytes.Buffer
	if _, err := buf.WriteToV2(&enc); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.OpenChunked(bytes.NewReader(enc.Bytes()), int64(enc.Len()))
	if err != nil {
		t.Fatal(err)
	}
	// sameNext reports whether g and twin yield the same next records.
	sameNext := func(g, twin trace.Generator) bool {
		for i := 0; i < 8; i++ {
			if g.Next() != twin.Next() {
				return false
			}
		}
		return true
	}
	type poser interface{ Pos() uint64 }
	for _, src := range []struct {
		name    string
		g, twin trace.Generator
	}{
		{"mix", obsTestMix(t, 9), nil},
		{"buffer", buf.Reader(), buf.Reader()},
		{"stream", ct.NewReader(), ct.NewReader()},
	} {
		if src.twin == nil {
			src.twin = src.g.(trace.ForkableGenerator).Fork()
		}
		if err := MustNew(smallConfig()).Run(src.g, n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			src.twin.Next()
		}
		if p, ok := src.g.(poser); ok {
			if got, want := p.Pos(), src.twin.(poser).Pos(); got != want {
				t.Errorf("%s: Pos after Run = %d, want %d", src.name, got, want)
			}
		}
		if !sameNext(src.g, src.twin) {
			t.Errorf("%s: Run left the generator off the position n draws reach", src.name)
		}
	}

	for _, top := range []struct{ cores, tenants int }{{1, 3}, {2, 3}} {
		m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: top.cores, Tenants: top.tenants,
			Quantum: 1_001, Shootdown: ShootdownFlushASID, UnmapEvery: 1_503})
		if err != nil {
			t.Fatal(err)
		}
		gens := make([]trace.Generator, top.tenants)
		twins := make([]trace.Generator, top.tenants)
		for i := range gens {
			gens[i] = obsTestMix(t, uint64(20+i))
			twins[i] = gens[i].(trace.ForkableGenerator).Fork()
		}
		quota := m.tenantQuota(n)
		if err := runTenants(m, gens, n); err != nil {
			t.Fatal(err)
		}
		for i := range gens {
			for j := uint64(0); j < quota[i]; j++ {
				twins[i].Next()
			}
			if !sameNext(gens[i], twins[i]) {
				t.Errorf("%dc×%dt tenant %d: Run did not advance its generator by its quota %d",
					top.cores, top.tenants, i, quota[i])
			}
		}
	}
}

// TestMultiRunContextCanceled: a canceled context stops a multi-core run
// before its first access, with the position in the error.
func TestMultiRunContextCanceled(t *testing.T) {
	m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 2, Tenants: 3, Quantum: 1_001})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = m.RunTenants(ctx, readers(multiBuffers(t, 3, 4, 4096), nil), 1<<20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled RunContext err = %v, want context.Canceled", err)
	}
	if want := fmt.Sprintf("sim: canceled at access 0 of %d: %v", 1<<20, context.Canceled); err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if r := m.Result(); r.MemAccesses != 0 {
		t.Errorf("canceled run simulated %d accesses", r.MemAccesses)
	}
}
