package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/expserve"
	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The ledger turns a traced pass into a per-module split of host CPU time.
// Its sources:
//
//   - spans around public calls: each cell (the runner's progress
//     callbacks, which also read the cell thread's CPU clock);
//   - hook timers inside the predictor taps (the core and pred modules);
//   - stream replays: each cell's recorded LLT stream, the walks in it, and
//     its LLC stream are replayed in order through fresh tlb, walker and
//     cache instances built from the cell's sim.Config, one call in
//     timeEvery timed; count × mean ns/op is the module's cost;
//   - the private structures (L1 TLBs, L1D, L2) and the timing core, whose
//     calls the taps do not see: their op counts come from the cell's
//     sim.Result, scaled from the measured region to the whole cell, and
//     their ns/op from a replay of the workload's trace through fresh
//     instances (an estimate: that replay looks every access up, where the
//     machine's deferred-hit runs apply repeated hits in bulk);
//   - the trace plane, the taps' own bookkeeping and a memo put, replayed;
//   - a whole-machine replay of each cell through public constructors, run
//     right after the traced cell on its thread (replayAfterCell), whose
//     time less its modules and hooks is the simulator's own (sim) share:
//     driver, dispatch and machine construction.
//
// The denominator is the cells' span CPU. What no source covers is the
// residual; model.coverage is the modelled share.

// ledgerModules are the modelled modules, in report order.
var ledgerModules = []string{"trace", "tlb", "walker", "cache", "cpu", "core", "pred", "sim", "perfbench"}

// workloadCosts are one workload's trace-plane replays and the per-op
// costs of its private structures.
type workloadCosts struct {
	materialize, generate, record, decode time.Duration
	fingerprint                           time.Duration
	v2Bytes                               int
	private                               privateCosts
}

// cellCosts are one cell's modelled costs.
type cellCosts struct {
	tlb, cache, walker, cpu time.Duration
	// privTLB, privCache and cpu are the estimated parts of tlb, cache
	// and cpu (count × ns/op of the private structures and the core).
	privTLB, privCache time.Duration
	tap                time.Duration
	streams            streamCosts
}

func (c *cellCosts) modules() time.Duration { return c.tlb + c.cache + c.walker + c.cpu }

// ledger is the computed split and the per-layer metrics.
type ledger struct {
	modules    map[string]time.Duration
	estimated  map[string]time.Duration // part of modules derived by estimate, not replay
	unmodelled []string
	denom      time.Duration // Σ cell span CPU
	spanWall   time.Duration // Σ cell span wall time
	childTime  time.Duration // modelled time below sim (everything but the driver)
	residual   time.Duration
	machine    time.Duration // Σ whole-machine replays
	metrics    map[string]metric
}

// pool runs tasks on at most jobs goroutines, each locked to its thread so
// the replays can read the thread CPU clock, and waits for all of them; the
// replays meet the same cache and memory contention the traced pass did.
func pool(jobs int, tasks []func()) {
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(t func()) {
			defer wg.Done()
			defer func() { <-sem }()
			onThread(t)
		}(t)
	}
	wg.Wait()
}

// replayTrace measures the trace plane over w's trace: materializing,
// live generation, recording and decoding DPBF v2, and fingerprinting;
// then the private structures' per-op costs over the materialized trace.
func replayTrace(ctx context.Context, cfg sim.Config, w trace.Workload, seed, n uint64) (workloadCosts, error) {
	var wc workloadCosts
	t0 := threadCPU()
	buf, err := trace.MaterializeContext(ctx, w.New(seed), n)
	if err != nil {
		return wc, err
	}
	wc.materialize = threadCPU() - t0

	t0 = threadCPU()
	g := w.New(seed)
	for i := uint64(0); i < n; i++ {
		g.Next()
	}
	wc.generate = threadCPU() - t0

	var rec bytes.Buffer
	t0 = threadCPU()
	if err := trace.RecordV2Context(ctx, &rec, w.New(seed), n); err != nil {
		return wc, err
	}
	wc.record, wc.v2Bytes = threadCPU()-t0, rec.Len()

	t0 = threadCPU()
	ct, err := trace.OpenChunked(bytes.NewReader(rec.Bytes()), int64(rec.Len()))
	if err != nil {
		return wc, err
	}
	sr := ct.NewReader()
	for left := n; left > 0; {
		ch, err := sr.NextChunk(4096)
		if err != nil {
			return wc, err
		}
		if ch.Len() == 0 {
			return wc, fmt.Errorf("perfbench: %s: recorded trace ends early", w.Name)
		}
		left -= uint64(ch.Len())
	}
	wc.decode = threadCPU() - t0

	t0 = threadCPU()
	if _, err := exp.WorkloadFingerprint(w, seed, n); err != nil {
		return wc, err
	}
	wc.fingerprint = threadCPU() - t0

	wc.private, err = replayPrivate(cfg, buf)
	return wc, err
}

// replayMachine times one cell's whole machine over buf as the runner
// drives it: sim.New and the setup's predictors, warmup, the warm-state
// fork when the cell takes one, then the measured accesses. The oracle's
// two passes are rebuilt from the public recorder and oracle predictors.
// It returns the measured result too, which must equal the cell's.
func replayMachine(cfg sim.Config, su exp.Setup, fork bool, buf *trace.Buffer, p exp.Params) (time.Duration, sim.Result, error) {
	build := func() (*sim.System, error) {
		s, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		if su.TLB != nil {
			tp, err := su.TLB(s)
			if err != nil {
				return nil, err
			}
			s.SetTLBPredictor(tp)
		}
		if su.LLC != nil {
			lp, err := su.LLC(s)
			if err != nil {
				return nil, err
			}
			s.SetLLCPredictor(lp)
		}
		return s, nil
	}
	t0 := threadCPU()
	var record *pred.DOARecord
	if su.Oracle {
		s, err := sim.New(cfg)
		if err != nil {
			return 0, sim.Result{}, err
		}
		record = pred.NewDOARecord()
		s.SetTLBPredictor(pred.NewRecorderTLB(record))
		if err := s.RunBuffer(buf.Reader(), p.Warmup+p.Measure); err != nil {
			return 0, sim.Result{}, err
		}
	}
	s, err := build()
	if err != nil {
		return 0, sim.Result{}, err
	}
	if record != nil {
		s.SetTLBPredictor(pred.NewOracleTLB(record))
	}
	rd := buf.Reader()
	if err := s.RunBuffer(rd, p.Warmup); err != nil {
		return 0, sim.Result{}, err
	}
	if fork {
		if s, err = s.Fork(); err != nil {
			return 0, sim.Result{}, err
		}
	}
	if su.Instrument.Accuracy {
		if err := s.EnableAccuracyTracking(); err != nil {
			return 0, sim.Result{}, err
		}
	}
	s.StartMeasurement()
	if err := s.RunBuffer(rd, p.Measure); err != nil {
		return 0, sim.Result{}, err
	}
	s.Finish()
	return threadCPU() - t0, s.Result(), nil
}

// bufCache materializes each workload's trace once for the machine replays
// of its cells and drops it after the last of them.
type bufCache struct {
	mu    sync.Mutex
	cells int // machine replays per workload
	bufs  map[string]*bufEntry
}

type bufEntry struct {
	once sync.Once
	buf  *trace.Buffer
	err  error
	left int
}

func newBufCache(cells int) *bufCache {
	return &bufCache{cells: cells, bufs: map[string]*bufEntry{}}
}

func (c *bufCache) get(ctx context.Context, w trace.Workload, seed, n uint64) (*trace.Buffer, error) {
	c.mu.Lock()
	e, ok := c.bufs[w.Name]
	if !ok {
		e = &bufEntry{left: c.cells}
		c.bufs[w.Name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.buf, e.err = trace.MaterializeContext(ctx, w.New(seed), n) })
	return e.buf, e.err
}

func (c *bufCache) release(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.bufs[name]; e != nil {
		if e.left--; e.left == 0 {
			e.buf = nil
		}
	}
}

// replayAfterCell times the whole machine of rec's cell, untapped and
// through public constructors, on the thread and pool slot the traced cell
// has just left: the cell and its replay run seconds apart, under the same
// host conditions and beside the same kind of work.
func (b *bench) replayAfterCell(ctx context.Context, rec *cellRec, bufs *bufCache) {
	p := b.params()
	su := b.setupByName(rec.setup)
	buf, err := bufs.get(ctx, b.workloadByName(rec.workload), p.Seed, p.Warmup+p.Measure)
	defer bufs.release(rec.workload)
	if err != nil {
		rec.machineErr = err
		return
	}
	fork := su.WarmupKey != "" && !b.spec.streamed && !su.Oracle
	d, res, err := replayMachine(b.cellConfig(su), su, fork, buf, p)
	rec.machine, rec.machineErr = d, err
	rec.machineDigest = cellDigest(cellResult{workload: rec.workload, setup: rec.setup, res: res})
}

// replayTap times the taps' own bookkeeping for a cell: the call counter,
// the sampled clock reads and the stream writes.
func replayTap(rec *cellRec) time.Duration {
	var h hookStats
	var llt, llc stream
	t0 := threadCPU()
	for i := uint64(0); i < rec.tlbHooks.calls+rec.llcHooks.calls; i++ {
		if h.begin() {
			h.end(h.start())
		}
	}
	for i := uint64(0); i < rec.llt.n; i++ {
		llt.add(i << evKeyShift)
	}
	for i := uint64(0); i < rec.llc.n; i++ {
		llc.add(i << evKeyShift)
	}
	return threadCPU() - t0
}

// replayCell models one cell: its recorded streams replayed, and its
// private structures and core estimated from its counters.
func replayCell(cfg sim.Config, rec *cellRec, counts privateCounts, scale float64, pc privateCosts) (cellCosts, error) {
	var cc cellCosts
	sc, err := replayStreams(cfg, rec)
	if err != nil {
		return cc, fmt.Errorf("%s/%s: %w", rec.workload, rec.setup, err)
	}
	cc.streams = sc
	cc.privTLB, cc.privCache, cc.cpu = pc.estimate(counts, scale)
	cc.tlb = sc.llt.total() + sc.lltFill.total() + cc.privTLB
	cc.walker = sc.walk.total()
	cc.cache = sc.llcLook.total() + sc.llcFill.total() + sc.inval.total() + cc.privCache
	cc.tap = replayTap(rec)
	return cc, nil
}

// memoPutReplay writes every cell's result into a fresh DiskMemo under dir
// and returns the mean put time and the bytes stored per cell; workloads
// that run without a memo report what one would cost them.
func memoPutReplay(dir string, cells []cellResult, params exp.Params) (time.Duration, float64, error) {
	m, err := expserve.OpenDiskMemo(dir)
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	n := 0
	for _, c := range cells {
		if c.err != nil {
			continue
		}
		sum := sha256.Sum256([]byte(c.name()))
		t0 := time.Now() // file I/O: wall time
		if err := m.Put(hex.EncodeToString(sum[:]), exp.CellMeta{Workload: c.workload, Setup: c.setup, Params: params}, c.res); err != nil {
			return 0, 0, err
		}
		total += time.Since(t0)
		n++
	}
	if n == 0 {
		return 0, 0, nil
	}
	return total / time.Duration(n), float64(dirBytes(dir)) / float64(n), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// buildLedger replays the traced pass and computes the per-layer metrics.
// up is an untraced pass of the same run, for the tracing overhead; shares
// is the traced pass's flat profile by module.
func (b *bench) buildLedger(ctx context.Context, tp, up passOut, shares map[string]float64, report io.Writer) (*ledger, error) {
	p := b.params()
	n := p.Warmup + p.Measure
	scale := float64(n) / float64(p.Measure) // measured-region counts → whole cell
	ws := b.spec.workloads()
	baseCfg := b.cellConfig(exp.Setup{})
	results := map[string]cellResult{}
	for _, c := range tp.cells {
		results[c.name()] = c
	}

	// Trace-plane and private-structure replays.
	wcs := make([]workloadCosts, len(ws))
	errs := make([]error, len(ws))
	var tasks []func()
	for i, w := range ws {
		i, w := i, w
		tasks = append(tasks, func() { wcs[i], errs[i] = replayTrace(ctx, baseCfg, w, p.Seed, n) })
	}
	pool(b.jobs, tasks)
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	wcByName := map[string]*workloadCosts{}
	for i, w := range ws {
		wcByName[w.Name] = &wcs[i]
	}

	// Cell replays: the recorded streams. The whole machines were replayed
	// beside the traced cells (replayAfterCell).
	names := make([]string, 0, len(tp.recs))
	for name := range tp.recs {
		names = append(names, name)
	}
	sort.Strings(names)
	ccs := make(map[string]*cellCosts, len(names))
	errs = make([]error, len(names))
	tasks = tasks[:0]
	for i, name := range names {
		i, name, rec := i, name, tp.recs[name]
		cc := &cellCosts{}
		ccs[name] = cc
		wc := wcByName[rec.workload]
		if rec.machineErr != nil {
			return nil, fmt.Errorf("perfbench: %s: machine replay: %w", name, rec.machineErr)
		}
		if rec.machineDigest != cellDigest(results[name]) {
			return nil, fmt.Errorf("perfbench: %s: the machine replay's result differs from the cell's", name)
		}
		su := b.setupByName(rec.setup)
		if !su.Oracle {
			res := results[name].res
			tasks = append(tasks, func() {
				*cc, errs[i] = replayCell(b.cellConfig(su), rec, countsOf(res), scale, wc.private)
			})
		}
	}
	pool(b.jobs, tasks)
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	led := &ledger{modules: map[string]time.Duration{}, estimated: map[string]time.Duration{}}
	add := func(mod string, d time.Duration, estimated bool) {
		led.modules[mod] += d
		if estimated {
			led.estimated[mod] += d
		}
	}

	// Trace plane: how the cells consumed their traces.
	for _, w := range ws {
		wc := wcByName[w.Name]
		if !b.spec.streamed {
			add("trace", wc.materialize, false) // once per workload, single-flight
			continue
		}
		passes := 0
		for _, name := range names {
			if tp.recs[name].workload == w.Name {
				passes += b.cellMachinePasses(tp.recs[name].setup)
			}
		}
		add("trace", time.Duration(passes)*wc.decode, false)
	}

	var hooks hookAgg
	var dpBypass, dpFills, cbBypass, cbFills uint64
	var backInv, walks uint64
	var walkTime time.Duration
	var lltNs, lookNs, fillNs weighted
	var driver time.Duration
	for _, name := range names {
		rec, cc := tp.recs[name], ccs[name]
		if su := b.setupByName(rec.setup); su.Oracle {
			// The oracle's TLB side is built inside the runner, so its LLT
			// stream is untapped. Its record pass runs the baseline machine
			// over the same trace, and its measured pass is estimated from
			// the baseline cell, the walker scaled by the two cells' walks.
			base := ccs[rec.workload+"/baseline"]
			res, bres := results[name].res, results[rec.workload+"/baseline"].res
			cc.tlb, cc.cache, cc.cpu = 2*base.tlb, 2*base.cache, 2*base.cpu
			cc.walker = base.walker + scaleDur(base.walker, res.Walks, bres.Walks)
			add("tlb", cc.tlb, true)
			add("cache", cc.cache, true)
			add("cpu", cc.cpu, true)
			add("walker", cc.walker, true)
			led.unmodelled = appendOnce(led.unmodelled, "oracle: recorder and oracle TLB hooks are untapped, so they stay in its sim share")
		} else {
			sc := &cc.streams
			add("tlb", cc.tlb-cc.privTLB, false)
			add("tlb", cc.privTLB, true)
			add("cache", cc.cache-cc.privCache, false)
			add("cache", cc.privCache, true)
			add("cpu", cc.cpu, true)
			add("walker", cc.walker, false)
			backInv += sc.backInv
			walks += sc.walks
			walkTime += cc.walker
			lltNs.add(sc.llt.meanNs(), sc.llt.sampled)
			lookNs.add(sc.llcLook.meanNs(), sc.llcLook.sampled)
			fillNs.add(sc.llcFill.meanNs(), sc.llcFill.sampled)
		}
		add("perfbench", cc.tap, false)

		ht, lt := rec.tlbHooks.total(), rec.llcHooks.total()
		add(rec.tlbKind, ht, false)
		add(rec.llcKind, lt, false)
		// The simulator's own share: the whole-machine replay less the
		// modules and hooks it contains.
		self := rec.machine - cc.modules() - ht - lt
		add("sim", self, false)
		driver += self
		if rec.tlbKind == "core" {
			hooks.add("dppred", rec.tlbHooks.calls, ht)
			dpBypass += rec.lltBypass
			dpFills += rec.llt.kinds[evFill] + rec.lltBypass
		} else if rec.tlbKind != "" {
			hooks.add("pred", rec.tlbHooks.calls, ht)
		}
		if rec.llcKind == "core" {
			hooks.add("cbpred", rec.llcHooks.calls, lt)
			cbBypass += rec.llcBypass
			cbFills += rec.llc.kinds[evFill] + rec.llcBypass
		} else if rec.llcKind != "" {
			hooks.add("pred", rec.llcHooks.calls, lt)
		}
	}
	delete(led.modules, "")
	led.unmodelled = appendOnce(led.unmodelled, "private L1 TLBs, L1D, L2 and the core: counts from sim.Result, ns/op from a trace replay that looks every access up (the machine's deferred-hit runs are cheaper), so these are upper bounds and sim's share a lower bound")

	// Spans: the traced cells are the denominator. The runner's own
	// figures come from the untraced pass, whose pool ran no replays.
	for _, s := range tp.spans {
		led.spanWall += s.end.Sub(s.start)
		led.denom += s.cpu
	}
	var cellDurs []float64
	var cellTime, queue time.Duration
	for _, s := range up.spans {
		d := s.end.Sub(s.start)
		cellTime += d
		cellDurs = append(cellDurs, d.Seconds())
		queue += s.start.Sub(up.start)
	}
	memoPut, memoBytes, err := memoPutReplay(filepath.Join(b.dir, "memo-replay"), tp.cells, p)
	if err != nil {
		return nil, err
	}
	var modelled time.Duration
	for _, d := range led.modules {
		modelled += d
	}
	led.childTime = modelled - driver
	led.residual = led.denom - modelled

	var agg resultAgg
	for _, c := range tp.cells {
		if c.err == nil {
			agg.add(c.res)
		}
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	sort.Float64s(cellDurs)
	set("exp.cell_p50_s", quantile(cellDurs, 0.5), "s")
	set("exp.cell_max_s", quantile(cellDurs, 1), "s")
	set("exp.queue_wait_s", safeDiv(queue.Seconds(), float64(len(up.spans))), "s")
	set("exp.pool_utilization", safeDiv(cellTime.Seconds(), float64(b.jobs)*up.wall.Seconds()), "ratio")
	var fp time.Duration
	for _, wc := range wcs {
		fp += wc.fingerprint
	}
	set("exp.fingerprint_s", fp.Seconds(), "s")
	set("expserve.memo_put_ms", float64(memoPut)/1e6, "ms")
	set("expserve.memo_bytes_per_cell", memoBytes, "B")
	b.traceMetrics(set, wcs, n)

	nominal := b.nominalAccesses()
	set("sim.residual_ns_per_access", float64(led.denom-led.childTime)/nominal, "ns")
	set("sim.driver_ns_per_access", float64(driver)/nominal, "ns")
	agg.metrics(set)
	set("tlb.llt.lookup_ns", lltNs.mean(), "ns")
	set("walker.walk_ns", safeDiv(float64(walkTime), float64(walks)), "ns")
	set("cache.lookup_ns", lookNs.mean(), "ns")
	set("cache.fill_ns", fillNs.mean(), "ns")
	set("cache.back_invalidations", float64(backInv), "count")
	hooks.metrics(set, dpBypass, dpFills, cbBypass, cbFills)
	b.wholeRunMetrics(set, led, modelled, cellTime, shares)
	led.metrics = m
	for _, rec := range tp.recs {
		led.machine += rec.machine
	}
	led.print(report, b, tp, up, shares)
	return led, nil
}

// traceMetrics sets the trace layer's per-access costs.
func (b *bench) traceMetrics(set func(string, float64, string), wcs []workloadCosts, n uint64) {
	var mat, recd, dec, gen time.Duration
	var v2 int
	for _, wc := range wcs {
		mat += wc.materialize
		recd += wc.record
		dec += wc.decode
		gen += wc.generate
		v2 += wc.v2Bytes
	}
	perAcc := func(d time.Duration) float64 { return float64(d) / float64(n*uint64(len(wcs))) }
	set("trace.materialize_ns_per_access", perAcc(mat), "ns")
	set("trace.record_ns_per_access", perAcc(recd), "ns")
	set("trace.decode_ns_per_access", perAcc(dec), "ns")
	set("trace.generate_ns_per_access", perAcc(gen), "ns")
	set("trace.v2_bytes_per_access", float64(v2)/float64(n*uint64(len(wcs))), "B")
}

// wholeRunMetrics sets the profile shares, coverage and tracing overhead:
// the traced cells' summed span wall against the untraced ones'
// (untracedSpanWall). Span walls leave out the machine replays that follow
// each traced cell.
func (b *bench) wholeRunMetrics(set func(string, float64, string), led *ledger, modelled, untracedSpanWall time.Duration, shares map[string]float64) {
	for _, mod := range reportedShares {
		set("profile_share."+mod, shares[mod], "ratio")
	}
	set("model.coverage", safeDiv(float64(modelled), float64(led.denom)), "ratio")
	set("trace_overhead_pct", 100*safeDiv(float64(led.spanWall-untracedSpanWall), float64(untracedSpanWall)), "%")
}

// cellMachinePasses is how many machine passes one cell runs: the oracle
// adds its record pass.
func (b *bench) cellMachinePasses(setup string) int {
	if b.setupByName(setup).Oracle {
		return 2
	}
	return 1
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func scaleDur(d time.Duration, num, den uint64) time.Duration {
	if den == 0 {
		return d
	}
	return time.Duration(float64(d) * float64(num) / float64(den))
}

func appendOnce(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted vs (nearest rank).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return vs[int(q*float64(len(vs)-1)+0.5)]
}

// weighted is a sample-weighted mean of per-op costs.
type weighted struct {
	sum float64
	n   uint64
}

func (w *weighted) add(mean float64, n uint64) {
	w.sum += mean * float64(n)
	w.n += n
}

func (w weighted) mean() float64 { return safeDiv(w.sum, float64(w.n)) }

// hookAgg aggregates hook timers by predictor.
type hookAgg struct {
	calls map[string]uint64
	time  map[string]time.Duration
}

func (h *hookAgg) add(key string, calls uint64, d time.Duration) {
	if h.calls == nil {
		h.calls, h.time = map[string]uint64{}, map[string]time.Duration{}
	}
	h.calls[key] += calls
	h.time[key] += d
}

func (h *hookAgg) meanNs(key string) float64 {
	return safeDiv(float64(h.time[key]), float64(h.calls[key]))
}

func (h *hookAgg) metrics(set func(string, float64, string), dpBypass, dpFills, cbBypass, cbFills uint64) {
	set("core.dppred.hook_calls", float64(h.calls["dppred"]), "count")
	set("core.dppred.hook_ns", h.meanNs("dppred"), "ns")
	set("core.dppred.bypass_ratio", safeDiv(float64(dpBypass), float64(dpFills)), "ratio")
	set("core.cbpred.hook_calls", float64(h.calls["cbpred"]), "count")
	set("core.cbpred.hook_ns", h.meanNs("cbpred"), "ns")
	set("core.cbpred.bypass_ratio", safeDiv(float64(cbBypass), float64(cbFills)), "ratio")
	set("pred.hook_calls", float64(h.calls["pred"]), "count")
	set("pred.hook_ns", h.meanNs("pred"), "ns")
}

// resultAgg sums measured-region counters over cells.
type resultAgg struct {
	instructions                                     uint64
	cycles                                           float64
	itlbLookups, itlbMisses, dtlbLookups, dtlbMisses uint64
	lltLookups, lltMisses, lltBypasses, shadowFills  uint64
	walks, ptAccesses, pwcHits, fullWalks            uint64
	l1dLookups, l1dMisses, l2Lookups, l2Misses       uint64
	llcLookups, llcMisses, llcBypasses               uint64
}

func (a *resultAgg) add(r sim.Result) {
	a.instructions += r.Instructions
	a.cycles += r.Cycles
	a.itlbLookups += r.ITLBLookups
	a.itlbMisses += r.ITLBMisses
	a.dtlbLookups += r.DTLBLookups
	a.dtlbMisses += r.DTLBMisses
	a.lltLookups += r.LLTLookups
	a.lltMisses += r.LLTMisses
	a.lltBypasses += r.LLTBypasses
	a.shadowFills += r.ShadowFills
	a.walks += r.Walks
	a.ptAccesses += r.PTAccesses
	a.pwcHits += r.PWCHits[0] + r.PWCHits[1] + r.PWCHits[2]
	a.fullWalks += r.FullWalks
	a.l1dLookups += r.L1DLookups
	a.l1dMisses += r.L1DMisses
	a.l2Lookups += r.L2Lookups
	a.l2Misses += r.L2Misses
	a.llcLookups += r.LLCLookups
	a.llcMisses += r.LLCMisses
	a.llcBypasses += r.LLCBypasses
}

// metrics sets the counter-derived per-layer metrics.
func (a *resultAgg) metrics(set func(string, float64, string)) {
	set("tlb.itlb.miss_ratio", safeDiv(float64(a.itlbMisses), float64(a.itlbLookups)), "ratio")
	set("tlb.dtlb.miss_ratio", safeDiv(float64(a.dtlbMisses), float64(a.dtlbLookups)), "ratio")
	set("tlb.llt.lookups", float64(a.lltLookups), "count")
	set("tlb.llt.miss_ratio", safeDiv(float64(a.lltMisses), float64(a.lltLookups)), "ratio")
	set("tlb.llt.bypass_ratio", safeDiv(float64(a.lltBypasses), float64(a.walks)), "ratio")
	set("tlb.shadow_fills", float64(a.shadowFills), "count")
	set("walker.walks", float64(a.walks), "count")
	set("walker.pte_per_walk", safeDiv(float64(a.ptAccesses), float64(a.walks)), "count")
	set("walker.pwc_hit_ratio", safeDiv(float64(a.pwcHits), float64(a.walks)), "ratio")
	set("walker.full_walk_ratio", safeDiv(float64(a.fullWalks), float64(a.walks)), "ratio")
	set("cache.l1d.miss_ratio", safeDiv(float64(a.l1dMisses), float64(a.l1dLookups)), "ratio")
	set("cache.l2.miss_ratio", safeDiv(float64(a.l2Misses), float64(a.l2Lookups)), "ratio")
	set("cache.llc.lookups", float64(a.llcLookups), "count")
	set("cache.llc.miss_ratio", safeDiv(float64(a.llcMisses), float64(a.llcLookups)), "ratio")
	set("cache.llc.bypass_ratio", safeDiv(float64(a.llcBypasses), float64(a.llcMisses)), "ratio")
	set("cpu.ipc", safeDiv(float64(a.instructions), a.cycles), "ratio")
}

// print writes the reconciliation report: the modelled split, the
// residual, coverage, and the profile beside it.
func (l *ledger) print(w io.Writer, b *bench, tp, up passOut, shares map[string]float64) {
	var upCPU time.Duration
	for _, s := range up.spans {
		upCPU += s.cpu
	}
	fmt.Fprintf(w, "ledger workload=%s traced_wall=%.3fs untraced_wall=%.3fs jobs=%d span_wall=%.3fs span_cpu=%.3fs untraced_span_cpu=%.3fs machine_replay_cpu=%.3fs (the split below is CPU time)\n",
		b.spec.name, tp.wall.Seconds(), up.wall.Seconds(), b.jobs, l.spanWall.Seconds(), l.denom.Seconds(), upCPU.Seconds(), l.machine.Seconds())
	var modelled time.Duration
	for _, mod := range ledgerModules {
		d := l.modules[mod]
		modelled += d
		est := ""
		if e := l.estimated[mod]; e > 0 {
			est = fmt.Sprintf(" (of which %.3fs estimated)", e.Seconds())
		}
		fmt.Fprintf(w, "ledger module %-9s %8.3fs %6.1f%%  profile %6.1f%%%s\n",
			mod, d.Seconds(), 100*safeDiv(float64(d), float64(l.denom)), 100*shares[mod], est)
	}
	fmt.Fprintf(w, "ledger residual   %8.3fs %6.1f%%  (unexplained; profile other %.1f%%)\n",
		l.residual.Seconds(), 100*safeDiv(float64(l.residual), float64(l.denom)), 100*shares["other"])
	fmt.Fprintf(w, "ledger model.coverage=%.4f (modelled %.3fs of %.3fs)\n",
		safeDiv(float64(modelled), float64(l.denom)), modelled.Seconds(), l.denom.Seconds())
	for _, u := range l.unmodelled {
		fmt.Fprintf(w, "ledger unmodelled: %s\n", u)
	}
	fmt.Fprintf(w, "ledger note: the profile buckets by leaf package, so TLB lookups (cache.Cache code) show under profile cache and page-table maps under gomap; compare tlb+cache %.1f%% with profile cache+tlb+policy %.1f%%, and walker %.1f%% with profile walker+pagetable+gomap %.1f%%\n",
		100*safeDiv(float64(l.modules["tlb"]+l.modules["cache"]), float64(l.denom)),
		100*(shares["cache"]+shares["tlb"]+shares["policy"]),
		100*safeDiv(float64(l.modules["walker"]), float64(l.denom)),
		100*(shares["walker"]+shares["pagetable"]+shares["gomap"]))
}
