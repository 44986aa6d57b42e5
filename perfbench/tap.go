package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/sim"
)

// The taps in this file are pass-through decorators around the public
// predictor seams, exp.Setup's TLB/LLC constructors. They never change a decision: every hook forwards its
// arguments to the wrapped predictor and returns its answer untouched. What
// they add is bookkeeping — call counts, a sampled hook timer, and the
// ordered request streams the ledger replays through fresh structures
// afterwards.

// Stream events pack a key with an event kind and the insertion hint:
// key<<evKeyShift | hint<<evHintShift | kind. LLT events are lookups that
// hit (evHit), missed and walked then filled (evFill) or bypassed
// (evBypass), or missed and were refilled from the predictor's shadow
// table without a walk (evShadow). LLC events are lookups that hit, or
// missed and filled or bypassed.
const (
	evHit uint64 = iota
	evFill
	evBypass
	evShadow

	evKindMask  = 3
	evHintShift = 2
	evKeyShift  = 3
)

func event(key uint64, kind uint64, hint policy.InsertHint) uint64 {
	return key<<evKeyShift | uint64(hint&1)<<evHintShift | kind
}

// windowSize is how many of a stream's newest events a cell keeps (256 KiB).
// A -quick cell issues about a million LLT and LLC requests each; keeping
// them all would hold over half a gigabyte for tab4 and slow the traced
// cells by writing it. The ledger replays the window for ns/op and takes
// the counts from the full stream.
const windowSize = 1 << 15

// stream counts every event of one request stream by kind and keeps the
// newest windowSize of them in order.
type stream struct {
	buf   []uint64
	n     uint64
	kinds [4]uint64
}

func (s *stream) add(ev uint64) {
	if s.buf == nil {
		s.buf = make([]uint64, windowSize)
	}
	s.buf[s.n&(windowSize-1)] = ev
	s.n++
	s.kinds[ev&evKindMask]++
}

// window returns the kept events, oldest first.
func (s *stream) window() []uint64 {
	if s.n <= windowSize {
		return s.buf[:s.n]
	}
	at := s.n & (windowSize - 1)
	return append(append(make([]uint64, 0, windowSize), s.buf[at:]...), s.buf[:at]...)
}

// timeEvery is the hook-timer sampling period: one call in timeEvery is
// timed, which keeps the timer's own cost off most calls.
const timeEvery = 64

// hookStats times one predictor's hooks. A sampled call reads the
// monotonic clock three times: the first interval is one clock read,
// measured in place, and the second is the call plus one clock read, so
// their difference is the call's cost with no separately calibrated offset.
type hookStats struct {
	calls   uint64
	sampled uint64
	ns      int64 // Σ (call + one clock read)
	clockNs int64 // Σ (one clock read)

	lastClockNs int64 // the open sample's clock read
}

// epoch anchors mono; time.Since on a monotonic time reads only the
// monotonic clock, so every mono call costs the same.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// begin counts a call and reports whether it is sampled.
func (h *hookStats) begin() bool {
	h.calls++
	return h.calls%timeEvery == 0
}

// start opens a sampled interval.
func (h *hookStats) start() int64 {
	t0 := mono()
	t1 := mono()
	h.lastClockNs = t1 - t0
	h.clockNs += h.lastClockNs
	return t1
}

// outlierNs drops a sample: no timed call takes this long unless the
// thread was descheduled or interrupted inside it, and one such sample
// would outweigh thousands of real ones in the mean.
const outlierNs = 20_000

func (h *hookStats) end(t1 int64) {
	ns := mono() - t1
	if ns > outlierNs || h.lastClockNs > outlierNs {
		h.clockNs -= h.lastClockNs
		return
	}
	h.sampled++
	h.ns += ns
}

// meanNs is the mean cost of one hook call, net of the clock.
func (h hookStats) meanNs() float64 {
	if h.sampled == 0 {
		return 0
	}
	return float64(h.ns-h.clockNs) / float64(h.sampled)
}

// cellRec is one cell's tap state. A cell's machine steps on one goroutine
// at a time (the warm master before its fork, then the fork), so the
// recorder needs no locking.
type cellRec struct {
	workload, setup string

	tlbHooks, llcHooks hookStats
	// tlbKind and llcKind name the wrapped predictors' modules ("core" for
	// the paper's dpPred/cbPred, "pred" for the rest) once a predictor is
	// installed; empty means the side was never tapped.
	tlbKind, llcKind string
	// builds counts predictor constructions and clones counts forks of a
	// wrapped predictor: a warm-forked cell builds once and clones once,
	// a cell that fell back to a cold warmup builds twice.
	builds, clones int

	llt stream // LLT events
	llc stream // LLC events

	lltBypass, llcBypass, shadow uint64

	// The cell's whole machine, replayed untapped right after it: CPU
	// time, and the digest of the result, which must equal the cell's.
	machine       time.Duration
	machineDigest string
	machineErr    error
}

// predKind buckets a predictor by the module implementing it.
func predKind(name string) string {
	switch name {
	case "dpPred", "cbPred":
		return "core"
	}
	return "pred"
}

// tlbTap wraps a TLB predictor.
type tlbTap struct {
	inner pred.TLBPredictor
	rec   *cellRec
}

func (t *tlbTap) Name() string        { return t.inner.Name() }
func (t *tlbTap) StorageBits() uint64 { return t.inner.StorageBits() }

func (t *tlbTap) OnHit(b *cache.Block) {
	t.rec.llt.add(event(b.Key, evHit, 0))
	if h := &t.rec.tlbHooks; h.begin() {
		t0 := h.start()
		t.inner.OnHit(b)
		h.end(t0)
		return
	}
	t.inner.OnHit(b)
}

func (t *tlbTap) OnMiss(vpn arch.VPN, pc uint64) (pfn arch.PFN, handled bool) {
	if h := &t.rec.tlbHooks; h.begin() {
		t0 := h.start()
		pfn, handled = t.inner.OnMiss(vpn, pc)
		h.end(t0)
	} else {
		pfn, handled = t.inner.OnMiss(vpn, pc)
	}
	if handled {
		// A shadow-table hit re-inserts without walking; an unhandled miss
		// is recorded by the OnFill that follows its walk.
		t.rec.llt.add(event(uint64(vpn), evShadow, 0))
		t.rec.shadow++
	}
	return pfn, handled
}

func (t *tlbTap) OnFill(vpn arch.VPN, pfn arch.PFN, pc uint64) (d pred.Decision) {
	if h := &t.rec.tlbHooks; h.begin() {
		t0 := h.start()
		d = t.inner.OnFill(vpn, pfn, pc)
		h.end(t0)
	} else {
		d = t.inner.OnFill(vpn, pfn, pc)
	}
	// OnFill follows an unhandled OnMiss: the walk just completed.
	kind := evFill
	if d.Bypass {
		kind = evBypass
		t.rec.lltBypass++
	}
	t.rec.llt.add(event(uint64(vpn), kind, d.Hint))
	return d
}

func (t *tlbTap) OnEvict(b cache.Block) {
	if h := &t.rec.tlbHooks; h.begin() {
		t0 := h.start()
		t.inner.OnEvict(b)
		h.end(t0)
		return
	}
	t.inner.OnEvict(b)
}

// CloneTLB keeps warm-fork alive: it clones the wrapped predictor and
// re-wraps the clone around the same recorder, so the fork's hooks continue
// the cell's streams. A wrapped predictor that cannot be cloned refuses the
// fork exactly as it would unwrapped.
func (t *tlbTap) CloneTLB(llt *cache.Cache) (pred.TLBPredictor, error) {
	c, ok := t.inner.(pred.ClonableTLB)
	if !ok {
		return nil, fmt.Errorf("perfbench: TLB predictor %q is not forkable", t.inner.Name())
	}
	inner, err := c.CloneTLB(llt)
	if err != nil {
		return nil, err
	}
	t.rec.clones++
	return wrapTLB(inner, t.rec), nil
}

// llcTap wraps an LLC predictor.
type llcTap struct {
	inner pred.LLCPredictor
	rec   *cellRec
}

func (t *llcTap) Name() string        { return t.inner.Name() }
func (t *llcTap) StorageBits() uint64 { return t.inner.StorageBits() }

func (t *llcTap) OnHit(b *cache.Block) {
	t.rec.llc.add(event(b.Key, evHit, 0))
	if h := &t.rec.llcHooks; h.begin() {
		t0 := h.start()
		t.inner.OnHit(b)
		h.end(t0)
		return
	}
	t.inner.OnHit(b)
}

func (t *llcTap) OnFill(block uint64, pc uint64) (d pred.Decision) {
	if h := &t.rec.llcHooks; h.begin() {
		t0 := h.start()
		d = t.inner.OnFill(block, pc)
		h.end(t0)
	} else {
		d = t.inner.OnFill(block, pc)
	}
	kind := evFill
	if d.Bypass {
		kind = evBypass
		t.rec.llcBypass++
	}
	t.rec.llc.add(event(block, kind, d.Hint))
	return d
}

func (t *llcTap) OnEvict(b cache.Block) {
	if h := &t.rec.llcHooks; h.begin() {
		t0 := h.start()
		t.inner.OnEvict(b)
		h.end(t0)
		return
	}
	t.inner.OnEvict(b)
}

// CloneLLC is CloneTLB's LLC counterpart.
func (t *llcTap) CloneLLC(llc *cache.Cache) (pred.LLCPredictor, error) {
	c, ok := t.inner.(pred.ClonableLLC)
	if !ok {
		return nil, fmt.Errorf("perfbench: LLC predictor %q is not forkable", t.inner.Name())
	}
	inner, err := c.CloneLLC(llc)
	if err != nil {
		return nil, err
	}
	t.rec.clones++
	return wrapLLC(inner, t.rec), nil
}

// The optional hooks are forwarded by mixins, one per interface, so a
// wrapper implements exactly the optional interfaces its inner predictor
// does: the simulator decides whether to call them by type assertion, and
// a wrapper that added one would change which code paths run.

type obsFwd struct {
	o pred.AccessObserver
	h *hookStats
}

func (f obsFwd) OnAccess(key uint64) {
	if f.h.begin() {
		t0 := f.h.start()
		f.o.OnAccess(key)
		f.h.end(t0)
		return
	}
	f.o.OnAccess(key)
}

type ffFwd struct {
	f pred.FillFinisher
	h *hookStats
}

func (f ffFwd) OnFillDone(b *cache.Block) {
	if f.h.begin() {
		t0 := f.h.start()
		f.f.OnFillDone(b)
		f.h.end(t0)
		return
	}
	f.f.OnFillDone(b)
}

type doaFwd struct {
	d pred.DOAPageListener
	h *hookStats
}

func (f doaFwd) NotifyDOAPage(pfn arch.PFN) {
	if f.h.begin() {
		t0 := f.h.start()
		f.d.NotifyDOAPage(pfn)
		f.h.end(t0)
		return
	}
	f.d.NotifyDOAPage(pfn)
}

// wrapTLB decorates p, mirroring its optional interfaces.
func wrapTLB(p pred.TLBPredictor, rec *cellRec) pred.TLBPredictor {
	rec.tlbKind = predKind(p.Name())
	t := &tlbTap{inner: p, rec: rec}
	o, isObs := p.(pred.AccessObserver)
	f, isFF := p.(pred.FillFinisher)
	h := &rec.tlbHooks
	switch {
	case isObs && isFF:
		return struct {
			*tlbTap
			obsFwd
			ffFwd
		}{t, obsFwd{o, h}, ffFwd{f, h}}
	case isObs:
		return struct {
			*tlbTap
			obsFwd
		}{t, obsFwd{o, h}}
	case isFF:
		return struct {
			*tlbTap
			ffFwd
		}{t, ffFwd{f, h}}
	}
	return t
}

// wrapLLC decorates p, mirroring its optional interfaces.
func wrapLLC(p pred.LLCPredictor, rec *cellRec) pred.LLCPredictor {
	rec.llcKind = predKind(p.Name())
	t := &llcTap{inner: p, rec: rec}
	h := &rec.llcHooks
	var o obsFwd
	var f ffFwd
	var d doaFwd
	var mask int
	if x, ok := p.(pred.AccessObserver); ok {
		o, mask = obsFwd{x, h}, mask|1
	}
	if x, ok := p.(pred.FillFinisher); ok {
		f, mask = ffFwd{x, h}, mask|2
	}
	if x, ok := p.(pred.DOAPageListener); ok {
		d, mask = doaFwd{x, h}, mask|4
	}
	switch mask {
	case 1:
		return struct {
			*llcTap
			obsFwd
		}{t, o}
	case 2:
		return struct {
			*llcTap
			ffFwd
		}{t, f}
	case 3:
		return struct {
			*llcTap
			obsFwd
			ffFwd
		}{t, o, f}
	case 4:
		return struct {
			*llcTap
			doaFwd
		}{t, d}
	case 5:
		return struct {
			*llcTap
			obsFwd
			doaFwd
		}{t, o, d}
	case 6:
		return struct {
			*llcTap
			ffFwd
			doaFwd
		}{t, f, d}
	case 7:
		return struct {
			*llcTap
			obsFwd
			ffFwd
			doaFwd
		}{t, o, f, d}
	}
	return t
}

// tapSetup returns su with both predictor constructors wrapped around the
// recorder recFor returns for the cell being built. A nil constructor
// stands for the null predictor, which the wrapper makes explicit; the
// oracle's TLB side is built inside the runner and stays untapped.
//
// The runner builds a cell's machines on that cell's goroutine, inside its
// progress span, so recFor can find the cell from the calling thread (see
// spanLog.current), and a cell's recorder sees one goroutine at a time.
func tapSetup(su exp.Setup, recFor func() *cellRec) exp.Setup {
	tlbNew, llcNew := su.TLB, su.LLC
	if !su.Oracle {
		su.TLB = func(s *sim.System) (pred.TLBPredictor, error) {
			rec := recFor()
			if rec == nil {
				return nil, fmt.Errorf("perfbench: %s: TLB predictor built outside a cell span", su.Name)
			}
			var p pred.TLBPredictor = pred.NullTLB{}
			if tlbNew != nil {
				var err error
				if p, err = tlbNew(s); err != nil {
					return nil, err
				}
			}
			return wrapTLB(p, rec), nil
		}
	}
	su.LLC = func(s *sim.System) (pred.LLCPredictor, error) {
		rec := recFor()
		if rec == nil {
			return nil, fmt.Errorf("perfbench: %s: LLC predictor built outside a cell span", su.Name)
		}
		rec.builds++ // every machine build installs an LLC predictor
		var p pred.LLCPredictor = pred.NullLLC{}
		if llcNew != nil {
			var err error
			if p, err = llcNew(s); err != nil {
				return nil, err
			}
		}
		return wrapLLC(p, rec), nil
	}
	return su
}

// span is one cell's timed interval: its wall interval, the CPU time its
// thread spent inside it, and the process's CPU time inside it, which with
// one job is the cell's own, the runtime's work on its behalf included.
// Untraced passes also time the host-speed probe run just before the cell.
type span struct {
	name       string // "workload/setup"
	start, end time.Time
	cpu        time.Duration
	procCPU    time.Duration

	probeWall, probeCPU time.Duration
	probeIters          int
}

// spanLog collects cell spans from the runner's progress callbacks, which
// fire concurrently from pool workers. Each cell runs on one goroutine
// from its ProgressStart to its ProgressDone; the log locks that goroutine
// to its thread in between so the thread's CPU clock measures the cell,
// and so the thread names the cell running on it.
type spanLog struct {
	mu    sync.Mutex
	open  map[string]span
	byTID map[int]string // cell running on each locked thread
	cells []span
	// after, when set, runs on the cell's thread and pool slot once its
	// span has closed.
	after func(name string)
	// probeIters, when set, is the probe run before each cell's span opens.
	probeIters int
}

func newSpanLog() *spanLog {
	return &spanLog{open: make(map[string]span), byTID: make(map[int]string)}
}

func (l *spanLog) start(workload, setup string) {
	runtime.LockOSThread()
	var s span
	if l.probeIters > 0 {
		w0, c0 := time.Now(), cpuTime()
		probe(l.probeIters)
		s.probeCPU, s.probeWall, s.probeIters = cpuTime()-c0, time.Since(w0), l.probeIters
	}
	s.name, s.start, s.cpu, s.procCPU = workload+"/"+setup, time.Now(), threadCPU(), cpuTime()
	l.mu.Lock()
	l.open[s.name] = s
	l.byTID[syscall.Gettid()] = s.name
	l.mu.Unlock()
}

func (l *spanLog) done(workload, setup string, _ time.Duration, _ error) {
	cpu, proc, now := threadCPU(), cpuTime(), time.Now()
	key := workload + "/" + setup
	l.mu.Lock()
	s := l.open[key]
	delete(l.open, key)
	delete(l.byTID, syscall.Gettid())
	s.end, s.cpu, s.procCPU = now, cpu-s.cpu, proc-s.procCPU
	l.cells = append(l.cells, s)
	l.mu.Unlock()
	if l.after != nil {
		l.after(key)
	}
	runtime.UnlockOSThread()
}

// current names the cell whose span is open on the calling thread, or "".
func (l *spanLog) current() string {
	tid := syscall.Gettid()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byTID[tid]
}
