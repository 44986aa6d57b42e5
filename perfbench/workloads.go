package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// kind selects how a workload's grid is driven.
type kind int

const (
	kindTable4 kind = iota // exp.Table4 over the Table II suite
	kindGrid               // exp.Runner.RunGrid over a custom workload
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name   string
	kind   kind
	params exp.Params
	// streamed replays DPBF v2 files recorded during set-up
	// (Runner.SetTraceDir).
	streamed bool
	// passSeconds is about how long one untraced pass takes on a 2-vCPU
	// x86-64 host. It is a constant, so a run's pass count depends on
	// --seconds alone and is the same for every commit measured.
	passSeconds float64
	// probeIters is the host-speed probe run before each cell of an
	// untraced pass, a few percent of a cell's time; hostExp is how
	// steeply the workload slows with the probe (hostspeed.go), fitted
	// from passes interleaved with probes on a 2-vCPU x86-64 host.
	probeIters int
	hostExp    float64
	workloads  func() []trace.Workload
	setups     func() []exp.Setup
}

func table4Setups() []exp.Setup {
	return []exp.Setup{exp.Baseline(), exp.AIPTLBSetup(), exp.SHiPTLBSetup(),
		exp.DPPredSetup(), exp.IsoStorageSetup(), exp.OracleSetup()}
}

// table4Params shortens the Table IV grid's cells to a quarter of
// paperexp -quick's (60k warmup + 80k measured accesses against 150k +
// 400k), so a run fits several passes: one -quick pass takes about 45 s on
// one job and its time drifts by a third over minutes on a shared host,
// where the median of several passes is steadier. The warmup still
// fills most of the 2 MB LLC, and traced runs of both lengths split their
// CPU profile between modules alike (METRICS.md).
var table4Params = exp.Params{Warmup: 60_000, Measure: 80_000, SampleEvery: 10_000}

var specs = []workloadSpec{
	{name: "tab4", kind: kindTable4, params: table4Params, passSeconds: 12,
		probeIters: 2_000_000, hostExp: 2.3,
		workloads: trace.Workloads, setups: table4Setups},
	{name: "l1-resident", kind: kindGrid,
		params:      exp.Params{Warmup: 200_000, Measure: 1_800_000, SampleEvery: 10_000},
		streamed:    true,
		passSeconds: 1.2,
		probeIters:  6_000_000, hostExp: 1.5,
		workloads: func() []trace.Workload { return []trace.Workload{l1ResidentWorkload()} },
		setups: func() []exp.Setup {
			return []exp.Setup{exp.Baseline(), exp.DPPredSetup(), exp.DPPredCBPredSetup()}
		}},
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// l1ResidentSpec is a mix whose data fits the 32 KiB L1D (24 KiB touched)
// and whose pages fit the 64-entry L1 D-TLB (6 data pages, one code page):
// after the first few hundred accesses nothing leaves the L1 structures.
func l1ResidentSpec() trace.MixSpec {
	const base = arch.VAddr(0x10_0000_0000)
	return trace.MixSpec{
		Name:   "l1-resident",
		GapMin: 1, GapMax: 6,
		Streams: []trace.StreamSpec{
			{Label: "scan", PC: 0x40_1000, PCCount: 4, Pattern: trace.Sequential,
				Base: base, Size: 16 << 10, Weight: 5},
			{Label: "table", PC: 0x40_1100, PCCount: 2, Pattern: trace.Random,
				Base: base + 64<<10, Size: 4 << 10, Weight: 3},
			{Label: "out", PC: 0x40_1200, Pattern: trace.Sequential,
				Base: base + 128<<10, Size: 4 << 10, Weight: 2, Write: true},
		},
	}
}

func l1ResidentWorkload() trace.Workload {
	return trace.Workload{
		Name:        "l1-resident",
		Suite:       "perfbench",
		Description: "L1-resident mix: sequential scan, small random table, sequential stores",
		New: func(seed uint64) trace.Generator {
			g, err := trace.NewMix(l1ResidentSpec(), seed)
			if err != nil {
				panic(err) // the spec is a constant; validated by the tests
			}
			return g
		},
	}
}

// bench is one benchmark invocation.
type bench struct {
	spec workloadSpec
	seed uint64
	jobs int
	dir  string

	traceDir string // recorded DPBF v2 files (streamed workloads)
	probing  bool   // untraced passes run the host-speed probe
}

func (b *bench) params() exp.Params {
	p := b.spec.params
	p.Seed = b.seed
	return p
}

// cellsPerPass is the number of grid cells one pass simulates.
func (b *bench) cellsPerPass() int {
	return len(b.spec.workloads()) * len(b.spec.setups())
}

// machinePasses counts full machine passes over a trace per grid pass: one
// per cell, plus the oracle's record pass.
func (b *bench) machinePasses() int {
	n := b.cellsPerPass()
	for _, su := range b.spec.setups() {
		if su.Oracle {
			n += len(b.spec.workloads())
		}
	}
	return n
}

// nominalAccesses is the fixed work of one pass: machine passes × trace
// length. Runner shortcuts (warm-fork, memo hits) count as speed.
func (b *bench) nominalAccesses() float64 {
	p := b.spec.params
	return float64(b.machinePasses()) * float64(p.Warmup+p.Measure)
}

// setup prepares what every pass needs before its first simulated access:
// resolving the workload catalog and the setups and building a runner, as
// paperexp does before its grid starts, and for streamed workloads
// recording each workload's DPBF v2 file under dir, which users pay once
// per trace directory. In-memory workloads materialize their traces inside
// the timed pass, as paperexp does on every run.
func (b *bench) setup(ctx context.Context, dir string) error {
	ws := b.spec.workloads()
	exp.NewRunner(b.params()).SetJobs(b.jobs)
	if !b.spec.streamed {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := b.params()
	n := p.Warmup + p.Measure
	for _, w := range ws {
		// exp.Runner reuses a file under its trace directory whose name
		// encodes the workload, seed and length.
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-n%d.dpbf", w.Name, p.Seed, n))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := trace.RecordV2Context(ctx, f, w.New(p.Seed), n)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("recording %s: %w", w.Name, werr)
		}
	}
	b.traceDir = dir
	return nil
}

// newRunner builds a fresh runner for one pass, so no result carries over.
func (b *bench) newRunner() *exp.Runner {
	r := exp.NewRunner(b.params())
	r.SetJobs(b.jobs)
	if b.spec.streamed {
		r.SetTraceDir(b.traceDir)
	}
	return r
}

// setupByName resolves one of the workload's setups.
func (b *bench) setupByName(name string) exp.Setup {
	for _, su := range b.spec.setups() {
		if su.Name == name {
			return su
		}
	}
	return exp.Setup{}
}

func (b *bench) workloadByName(name string) trace.Workload {
	for _, w := range b.spec.workloads() {
		if w.Name == name {
			return w
		}
	}
	return trace.Workload{}
}

// cellConfig is the machine configuration a cell of setup su runs.
func (b *bench) cellConfig(su exp.Setup) sim.Config {
	cfg := sim.DefaultConfig()
	if su.Config != nil {
		cfg = su.Config()
	}
	cfg.Seed = b.seed
	return cfg
}

// cellResult is one cell's outcome.
type cellResult struct {
	workload, setup string
	res             sim.Result
	err             error
}

func (c cellResult) name() string { return c.workload + "/" + c.setup }

// passOut is one pass's measurements and outputs.
type passOut struct {
	wall  time.Duration
	alloc uint64
	cells []cellResult
	start time.Time // when the pass's first cell could start
	// traced-pass extras
	recs  map[string]*cellRec
	spans []span
}

func (p passOut) failed() int {
	n := 0
	for _, c := range p.cells {
		if c.err != nil {
			n++
		}
	}
	return n
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// pass runs the workload's grid once. Untraced, it calls the entry point
// paperexp calls; traced, it runs the same cells with tapped setups and
// progress spans, then aggregates through the same entry point.
func (b *bench) pass(ctx context.Context, traced bool) (passOut, error) {
	r := b.newRunner()
	r.SetContext(ctx)
	var out passOut
	spans := newSpanLog()
	if b.probing && !traced {
		spans.probeIters = b.spec.probeIters
	}
	r.ProgressStart, r.ProgressDone = spans.start, spans.done
	ws, sus := b.spec.workloads(), b.spec.setups()
	if traced {
		out.recs = make(map[string]*cellRec)
		for _, w := range ws {
			for _, su := range sus {
				out.recs[w.Name+"/"+su.Name] = &cellRec{workload: w.Name, setup: su.Name}
			}
		}
		bufs := newBufCache(len(sus))
		spans.after = func(name string) { b.replayAfterCell(ctx, out.recs[name], bufs) }
	}

	runtime.GC()
	a0, t0 := totalAlloc(), time.Now()
	out.start = t0
	// Grid errors are collected per cell below.
	if traced {
		// The same grid, in the same order, with every setup tapped; each
		// cell's predictors find its recorder through its span.
		recFor := func() *cellRec { return out.recs[spans.current()] }
		tapped := make([]exp.Setup, len(sus))
		for j, su := range sus {
			tapped[j] = tapSetup(su, recFor)
		}
		r.RunGrid(ws, tapped)
	}
	// The aggregation entry point; after a traced grid every cell is a
	// memo hit, so this adds only the report assembly.
	if b.spec.kind == kindTable4 {
		exp.Table4(r)
	} else {
		r.RunGrid(ws, sus)
	}
	out.wall, out.alloc = time.Since(t0), totalAlloc()-a0

	for _, w := range ws {
		for _, su := range sus {
			res, err := r.Run(w, su) // memo hit
			out.cells = append(out.cells, cellResult{workload: w.Name, setup: su.Name, res: res, err: err})
		}
	}
	out.spans = spans.cells
	return out, nil
}

// checkCells applies the invariants every correct cell satisfies.
func (b *bench) checkCells(cells []cellResult) error {
	if len(cells) != b.cellsPerPass() {
		return fmt.Errorf("%d cells, want %d", len(cells), b.cellsPerPass())
	}
	measure := b.spec.params.Measure
	for _, c := range cells {
		if c.err != nil {
			continue // counted as failed
		}
		r := c.res
		if r.MemAccesses != measure || r.IPC <= 0 || r.Instructions == 0 {
			return fmt.Errorf("%s: %d measured accesses (want %d), IPC %g", c.name(), r.MemAccesses, measure, r.IPC)
		}
		if r.Walks > r.LLTMisses || r.LLTMisses > r.LLTLookups || r.LLCMisses > r.LLCLookups {
			return fmt.Errorf("%s: inconsistent counters %+v", c.name(), r)
		}
	}
	return nil
}

// sortedCells orders cells by name for reports.
func sortedCells(cells []cellResult) []cellResult {
	out := append([]cellResult(nil), cells...)
	sort.Slice(out, func(i, j int) bool { return out[i].name() < out[j].name() })
	return out
}
