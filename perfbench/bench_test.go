package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tinyBench is a workload's benchmark at a scale small enough for a test.
func tinyBench(t *testing.T, name string) *bench {
	t.Helper()
	spec, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	spec.params.Warmup, spec.params.Measure = 2_000, 4_000
	return &bench{spec: spec, seed: 7, jobs: 2, dir: t.TempDir()}
}

// TestTapsArePassive runs every workload untraced and traced and requires
// identical per-cell results: the taps observe, they never steer.
func TestTapsArePassive(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			b := tinyBench(t, name)
			if err := b.setup(ctx, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			plain, err := b.pass(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := b.pass(ctx, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.checkCells(plain.cells); err != nil {
				t.Fatal(err)
			}
			if len(plain.cells) != len(traced.cells) {
				t.Fatalf("%d untraced cells, %d traced", len(plain.cells), len(traced.cells))
			}
			for i := range plain.cells {
				if p, q := cellDigest(plain.cells[i]), cellDigest(traced.cells[i]); p != q {
					t.Errorf("%s: untraced digest %s, traced %s", plain.cells[i].name(), p, q)
				}
			}
			if len(traced.recs) != b.cellsPerPass() {
				t.Errorf("%d cell recorders, want %d", len(traced.recs), b.cellsPerPass())
			}
		})
	}
}

// TestTapsKeepWarmFork checks that every cell sharing warm state still
// forks under the taps: it builds its predictors once and clones both,
// instead of falling back to a cold warmup that would build them twice.
func TestTapsKeepWarmFork(t *testing.T) {
	b := tinyBench(t, "tab4")
	traced, err := b.pass(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, su := range b.spec.setups() {
		for _, w := range b.spec.workloads() {
			rec := traced.recs[w.Name+"/"+su.Name]
			switch {
			case su.Oracle:
			case su.WarmupKey != "":
				if rec.builds != 1 || rec.clones != 2 {
					t.Errorf("%s/%s: %d builds, %d clones; want a warm fork (1 build, 2 clones)", w.Name, su.Name, rec.builds, rec.clones)
				}
			default:
				if rec.builds != 1 || rec.clones != 0 {
					t.Errorf("%s/%s: %d builds, %d clones; want 1 build, no clone", w.Name, su.Name, rec.builds, rec.clones)
				}
			}
		}
	}
}

// TestWrappersMirrorOptionalHooks requires a wrapped predictor to
// implement exactly the optional interfaces its inner predictor does,
// since the simulator picks code paths by type assertion.
func TestWrappersMirrorOptionalHooks(t *testing.T) {
	for _, name := range pred.Names() {
		su, err := exp.SetupFor(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rec := &cellRec{}
		if su.TLB != nil {
			p, err := su.TLB(s)
			if err != nil {
				t.Fatal(err)
			}
			w := wrapTLB(p, rec)
			_, a := p.(pred.AccessObserver)
			_, b := w.(pred.AccessObserver)
			_, c := p.(pred.FillFinisher)
			_, d := w.(pred.FillFinisher)
			_, e := w.(pred.ClonableTLB)
			if a != b || c != d || !e {
				t.Errorf("%s TLB wrapper: observer %v→%v, fill finisher %v→%v, clonable %v", name, a, b, c, d, e)
			}
		}
		if su.LLC != nil {
			p, err := su.LLC(s)
			if err != nil {
				t.Fatal(err)
			}
			w := wrapLLC(p, rec)
			_, a := p.(pred.AccessObserver)
			_, b := w.(pred.AccessObserver)
			_, c := p.(pred.FillFinisher)
			_, d := w.(pred.FillFinisher)
			_, e := p.(pred.DOAPageListener)
			_, f := w.(pred.DOAPageListener)
			if a != b || c != d || e != f {
				t.Errorf("%s LLC wrapper: observer %v→%v, fill finisher %v→%v, DOA listener %v→%v", name, a, b, c, d, e, f)
			}
		}
	}
}

// TestLedgerReplays builds every workload's ledger at tiny scale: the
// whole-machine replays (checked inside the ledger) must reproduce every
// cell's result, and the stream replays must cost something.
func TestLedgerReplays(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			b := tinyBench(t, name)
			if err := b.setup(ctx, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			traced, err := b.pass(ctx, true)
			if err != nil {
				t.Fatal(err)
			}
			led, err := b.buildLedger(ctx, traced, traced, map[string]float64{}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, mod := range []string{"tlb", "cache", "cpu", "sim"} {
				if led.modules[mod] <= 0 {
					t.Errorf("module %s costs %v", mod, led.modules[mod])
				}
			}
			if c := led.metrics["model.coverage"].Value; c <= 0 {
				t.Errorf("model.coverage = %g", c)
			}
		})
	}
}

func TestDigestsAreStable(t *testing.T) {
	c := cellResult{workload: "w", setup: "s", res: sim.Result{Instructions: 10, Cycles: 20, IPC: 0.5}}
	if cellDigest(c) != cellDigest(c) {
		t.Fatal("digest is not deterministic")
	}
	d := c
	d.res.Walks = 1
	if cellDigest(c) == cellDigest(d) {
		t.Fatal("digest ignores Walks")
	}
}

// TestQuietTimes checks the host-speed scaling: a pass whose probes ran at
// their nominal speed keeps its times, and one whose probes took twice as
// long is divided by two raised to the exponent.
func TestQuietTimes(t *testing.T) {
	nominal := time.Duration(1000 * probeNsPerIter)
	quiet := passTimes{wall: 8 * time.Second, cpu: 6 * time.Second, probeWall: nominal, probeCPU: nominal, probeIters: 1000}
	if w, c := quiet.quietWall(2), quiet.quietCPU(2); math.Abs(w-8) > 1e-9 || math.Abs(c-6) > 1e-9 {
		t.Errorf("quiet host: wall %g, cpu %g; want 8, 6", w, c)
	}
	busy := quiet
	busy.probeWall, busy.probeCPU = 2*nominal, 2*nominal
	if w, c := busy.quietWall(2), busy.quietCPU(1); math.Abs(w-2) > 1e-9 || math.Abs(c-3) > 1e-9 {
		t.Errorf("busy host: wall %g, cpu %g; want 2, 3", w, c)
	}
}

func TestL1ResidentSpecIsValid(t *testing.T) {
	if _, err := trace.NewMix(l1ResidentSpec(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestFlatShares decodes a real CPU profile of this process.
func TestFlatShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	var x uint64
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	sink = x
	shares, err := flatShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g", sum)
	}
	if shares["perfbench"] == 0 {
		t.Errorf("no samples attributed to the benchmark's own loop: %v", shares)
	}
}

var sink uint64
