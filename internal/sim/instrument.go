package sim

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// instrument is a passive consumer of one core's access path: it receives
// the path's named events at the Figure 6/8 hook points and never feeds
// anything back, so results are bit-identical with or without it. Embed
// noEvents and implement only the events the instrument reads. now is the
// core cycle at the start of the access.
type instrument interface {
	// LLT side. A fill is a walk's or a shadow refill's allocation (a
	// shadow refill fills with a non-predicting decision); evictions carry
	// the victim and its generation record (zero unless the LLT tracks
	// entry times), prefetch fills' victims included.
	lltHit(vpn arch.VPN, now uint64)
	shadowRefill(vpn arch.VPN, pfn arch.PFN, pc uint64)
	lltFill(vpn arch.VPN, pfn arch.PFN, pc uint64, d pred.Decision, now uint64)
	lltBypass(vpn arch.VPN, pfn arch.PFN, pc uint64, d pred.Decision, now uint64)
	lltEvict(victim cache.Block, gen cache.Gen, now uint64)
	// walkDone is a completed demand walk: its latency with queueing, its
	// PTE fetches, and whether it queued behind the walker.
	walkDone(vpn arch.VPN, lat arch.Lat, ptAccesses int, queued bool)

	// LLC side; key is the physical block number.
	llcHit(key, now uint64)
	llcFill(key, pc uint64, d pred.Decision, now uint64)
	llcBypass(key, pc uint64, d pred.Decision, now uint64)
	llcEvict(victim cache.Block, gen cache.Gen, now uint64)

	// accessDone closes an access with its total memory latency.
	accessDone(lat uint64)
	// every is the instrument's tick period in accesses (0: it never
	// ticks); tick runs right after every access whose count is a
	// multiple of it.
	every() uint64
	tick(p *proc)

	// finish resolves end-of-run state (System.Finish); report writes the
	// instrument's fields of a core's Result.
	finish(p *proc)
	report(r *Result)
}

// noEvents implements every instrument event as a no-op.
type noEvents struct{}

func (noEvents) lltHit(arch.VPN, uint64)                                     {}
func (noEvents) shadowRefill(arch.VPN, arch.PFN, uint64)                     {}
func (noEvents) lltFill(arch.VPN, arch.PFN, uint64, pred.Decision, uint64)   {}
func (noEvents) lltBypass(arch.VPN, arch.PFN, uint64, pred.Decision, uint64) {}
func (noEvents) lltEvict(cache.Block, cache.Gen, uint64)                     {}
func (noEvents) walkDone(arch.VPN, arch.Lat, int, bool)                      {}
func (noEvents) llcHit(uint64, uint64)                                       {}
func (noEvents) llcFill(uint64, uint64, pred.Decision, uint64)               {}
func (noEvents) llcBypass(uint64, uint64, pred.Decision, uint64)             {}
func (noEvents) llcEvict(cache.Block, cache.Gen, uint64)                     {}
func (noEvents) accessDone(uint64)                                           {}
func (noEvents) every() uint64                                               { return 0 }
func (noEvents) tick(*proc)                                                  {}
func (noEvents) finish(*proc)                                                {}
func (noEvents) report(*Result)                                              {}

// instruments is a core's composite instrument, proc.inst: one slot per
// kind of instrument, and the filled slots in a fixed order, to which it
// fans out every event. A core keeps it only while something is attached
// (setInstruments), so each event site on an uninstrumented core's access
// path costs one nil check. The mirrors are the machine's shared ones on
// every core; the other kinds are per core.
type instruments struct {
	acc  *accuracyMirrors
	conf *confusionMirrors
	char *characterization
	hist *histograms
	tr   *eventTracer
	ivl  *intervalSampler

	// published is set while an observer or a metrics registry is
	// attached: their probes read the machine's structures after the run.
	published bool

	list []instrument
}

// instrument edits core p's composite (a new one when nothing is
// attached) and keeps it only if it holds an instrument or is published.
func (p *proc) instrument(edit func(c *instruments)) {
	c := p.inst
	if c == nil {
		c = &instruments{}
	}
	edit(c)
	c.list = c.list[:0]
	if c.acc != nil {
		c.list = append(c.list, c.acc)
	}
	if c.conf != nil {
		c.list = append(c.list, c.conf)
	}
	if c.char != nil {
		c.list = append(c.list, c.char)
	}
	if c.hist != nil {
		c.list = append(c.list, c.hist)
	}
	if c.tr != nil {
		c.list = append(c.list, c.tr)
	}
	if c.ivl != nil {
		c.list = append(c.list, c.ivl)
	}
	p.inst = c
	if len(c.list) == 0 && !c.published {
		p.inst = nil
	}
}

// The composite's event sites. A shadow refill is followed by its fill; a
// walk by the predictor's decision, a bypass or a fill. A walk's events
// fire after the predictor's OnFill, which emits no trace events, so the
// trace keeps the order of the hook points. Each site runs out of line:
// inlined, its loop grows the hot functions that call it by a branch an
// uninstrumented run never takes, which slowed perfbench's tab4 passes by
// ~5–8% on a 2-vCPU host.

//go:noinline
func (c *instruments) lltHit(vpn arch.VPN, now uint64) {
	for _, i := range c.list {
		i.lltHit(vpn, now)
	}
}

//go:noinline
func (c *instruments) shadowRefill(vpn arch.VPN, pfn arch.PFN, pc uint64, d pred.Decision, now uint64) {
	for _, i := range c.list {
		i.shadowRefill(vpn, pfn, pc)
		i.lltFill(vpn, pfn, pc, d, now)
	}
}

//go:noinline
func (c *instruments) walked(vpn arch.VPN, pfn arch.PFN, pc uint64, lat arch.Lat, ptAccesses int, queued bool, d pred.Decision, now uint64) {
	for _, i := range c.list {
		i.walkDone(vpn, lat, ptAccesses, queued)
		if d.Bypass {
			i.lltBypass(vpn, pfn, pc, d, now)
		} else {
			i.lltFill(vpn, pfn, pc, d, now)
		}
	}
}

//go:noinline
func (c *instruments) lltEvict(victim cache.Block, gen cache.Gen, now uint64) {
	for _, i := range c.list {
		i.lltEvict(victim, gen, now)
	}
}

//go:noinline
func (c *instruments) llcHit(key, now uint64) {
	for _, i := range c.list {
		i.llcHit(key, now)
	}
}

//go:noinline
func (c *instruments) llcMiss(key, pc uint64, d pred.Decision, now uint64) {
	for _, i := range c.list {
		if d.Bypass {
			i.llcBypass(key, pc, d, now)
		} else {
			i.llcFill(key, pc, d, now)
		}
	}
}

//go:noinline
func (c *instruments) llcEvict(victim cache.Block, gen cache.Gen, now uint64) {
	for _, i := range c.list {
		i.llcEvict(victim, gen, now)
	}
}

//go:noinline
func (c *instruments) accessDone(lat uint64) {
	for _, i := range c.list {
		i.accessDone(lat)
	}
}

// untilTick returns how many accesses, counting from accesses, run until
// the next one after which an instrument ticks (MaxUint64: none ticks).
func (c *instruments) untilTick(accesses uint64) uint64 {
	n := uint64(math.MaxUint64)
	for _, i := range c.list {
		if e := i.every(); e > 0 {
			n = min(n, e-accesses%e)
		}
	}
	return n
}

// tick runs every instrument whose period divides p's access count.
func (c *instruments) tick(p *proc) {
	for _, i := range c.list {
		if e := i.every(); e > 0 && p.accesses%e == 0 {
			i.tick(p)
		}
	}
}

func (c *instruments) finish(p *proc) {
	for _, i := range c.list {
		i.finish(p)
	}
}

func (c *instruments) report(r *Result) {
	for _, i := range c.list {
		i.report(r)
	}
}

// confusion returns the counts of core p's confusion mirrors (zero
// without them).
func (p *proc) confusion() (llt, llc stats.Confusion) {
	if p.inst == nil || p.inst.conf == nil {
		return
	}
	return p.inst.conf.llt.Counts(), p.inst.conf.llc.Counts()
}

// mirrors is a pair of tag-only mirrors of the LLT and the LLC that grade
// every fill-time dead prediction (stats.ConfusionTracker). Every access
// that reaches the structure touches its mirror, tagged with the
// predictor's claim when it fills or bypasses.
type mirrors struct {
	noEvents
	llt, llc *stats.ConfusionTracker
}

// newMirrors builds mirrors with the geometry and replacement policy of
// the LLT and the LLC.
func newMirrors(cfg Config, llt *tlb.TLB, llc *cache.Cache) (mirrors, error) {
	inner := llt.Inner()
	lt, err := stats.NewConfusionTracker("llt", inner.Sets(), inner.Ways(), cfg.LLT.Policy)
	if err != nil {
		return mirrors{}, err
	}
	ct, err := stats.NewConfusionTracker("llc", llc.Sets(), llc.Ways(), cfg.LLC.Policy)
	return mirrors{llt: lt, llc: ct}, err
}

func (m *mirrors) lltHit(vpn arch.VPN, now uint64) { m.llt.Access(uint64(vpn), false, now) }
func (m *mirrors) lltFill(vpn arch.VPN, _ arch.PFN, _ uint64, d pred.Decision, now uint64) {
	m.llt.Access(uint64(vpn), d.PredictDOA, now)
}
func (m *mirrors) lltBypass(vpn arch.VPN, _ arch.PFN, _ uint64, d pred.Decision, now uint64) {
	m.llt.Access(uint64(vpn), d.PredictDOA, now)
}
func (m *mirrors) llcHit(key, now uint64) { m.llc.Access(key, false, now) }
func (m *mirrors) llcFill(key, _ uint64, d pred.Decision, now uint64) {
	m.llc.Access(key, d.PredictDOA, now)
}
func (m *mirrors) llcBypass(key, _ uint64, d pred.Decision, now uint64) {
	m.llc.Access(key, d.PredictDOA, now)
}

// accuracyMirrors grade the §VI-C accuracy and coverage Result reports.
// They are never flushed: entries still resident at the end stay
// ungraded.
type accuracyMirrors struct{ mirrors }

func (m *accuracyMirrors) report(r *Result) {
	r.LLTAccuracy, r.LLCAccuracy = m.llt.Accuracy(), m.llc.Accuracy()
}

// confusionMirrors grade the true-dead/premature/missed counts the metric
// probes, the interval samples and Result report; Finish grades the
// entries still resident.
type confusionMirrors struct{ mirrors }

func (m *confusionMirrors) finish(*proc) {
	m.llt.Flush()
	m.llc.Flush()
}

// characterization is the §IV dead-entry samplers of the LLT and the LLC
// plus the Table III DOA correlation. The samplers classify every
// eviction and snapshot the residents every period accesses.
type characterization struct {
	noEvents
	llt, llc *stats.DeadSampler
	corr     *stats.DOACorrelation
	period   uint64
}

func (c *characterization) lltEvict(victim cache.Block, gen cache.Gen, now uint64) {
	c.llt.OnEvict(victim.Key, gen, now)
	c.corr.OnPageEvict(arch.PFN(victim.Data), !victim.Accessed)
}

func (c *characterization) llcEvict(victim cache.Block, gen cache.Gen, now uint64) {
	c.llc.OnEvict(victim.Key, gen, now)
	c.corr.OnBlockEvict(blockFrame(victim.Key), uint64(victim.Hits))
}

func (c *characterization) every() uint64 { return c.period }

func (c *characterization) tick(p *proc) {
	c.llt.Sample(p.llt.Inner())
	c.llc.Sample(p.llc)
}

// finish flushes the samplers' residents and classifies the pages still
// in the LLT for the correlation.
func (c *characterization) finish(p *proc) {
	c.llt.Finish(p.llt.Inner())
	c.llc.Finish(p.llc)
	p.llt.Inner().ForEach(func(_, _ int, b *cache.Block) {
		c.corr.OnPageResident(arch.PFN(b.Data), !b.Accessed)
	})
}

func (c *characterization) report(r *Result) {
	r.LLTDead, r.LLCDead = c.llt.Result(), c.llc.Result()
	r.Correlation = c.corr.Result()
}

// histograms are a core's latency and lifetime distributions in a metrics
// registry.
type histograms struct {
	noEvents
	memLat    *obs.Histogram // total memory latency per access
	walkDepth *obs.Histogram // PTE fetches per page walk (1–4)
	walkLat   *obs.Histogram // effective walk latency, queueing included
	lltLife   *obs.Histogram // LLT entry residency, fill → eviction
	llcLife   *obs.Histogram // LLC block residency, fill → eviction
}

// newHistograms creates core p's histograms in r. The lifetime histograms
// read the shared LLT's and LLC's entry times, so the machine starts
// tracking them here; attaching after the machine filled either structure
// is a programming error and panics.
func newHistograms(p *proc, r *obs.Registry) *histograms {
	if err := p.trackTimes(); err != nil {
		panic(fmt.Sprintf("sim: lifetime histograms: %v (attach before the first access)", err))
	}
	return &histograms{
		memLat:    r.Histogram("hist.mem_latency"),
		walkDepth: r.Histogram("hist.walk_depth"),
		walkLat:   r.Histogram("hist.walk_latency"),
		lltLife:   r.Histogram("hist.llt_lifetime"),
		llcLife:   r.Histogram("hist.llc_lifetime"),
	}
}

func (h *histograms) walkDone(_ arch.VPN, lat arch.Lat, ptAccesses int, _ bool) {
	h.walkDepth.Observe(uint64(ptAccesses))
	h.walkLat.Observe(uint64(lat))
}
func (h *histograms) lltEvict(_ cache.Block, gen cache.Gen, now uint64) {
	h.lltLife.Observe(now - gen.FillTime)
}
func (h *histograms) llcEvict(_ cache.Block, gen cache.Gen, now uint64) {
	h.llcLife.Observe(now - gen.FillTime)
}
func (h *histograms) accessDone(lat uint64) { h.memLat.Observe(lat) }

// eventTracer emits the access path's events as obs trace events.
type eventTracer struct {
	noEvents
	tr *obs.Tracer
}

func (t *eventTracer) shadowRefill(vpn arch.VPN, pfn arch.PFN, pc uint64) {
	t.tr.Emit(obs.Event{Kind: obs.EvShadowHit, Key: uint64(vpn), Aux: uint64(pfn), PC: pc})
}
func (t *eventTracer) lltFill(vpn arch.VPN, pfn arch.PFN, pc uint64, _ pred.Decision, _ uint64) {
	t.tr.Emit(obs.Event{Kind: obs.EvLLTFill, Key: uint64(vpn), Aux: uint64(pfn), PC: pc})
}
func (t *eventTracer) lltBypass(vpn arch.VPN, pfn arch.PFN, pc uint64, _ pred.Decision, _ uint64) {
	t.tr.Emit(obs.Event{Kind: obs.EvLLTBypass, Key: uint64(vpn), Aux: uint64(pfn), PC: pc})
}
func (t *eventTracer) lltEvict(victim cache.Block, _ cache.Gen, _ uint64) {
	t.tr.Emit(obs.Event{Kind: obs.EvLLTEvict, Key: victim.Key, Aux: victim.Data, Flag: victim.Accessed})
}
func (t *eventTracer) walkDone(vpn arch.VPN, lat arch.Lat, _ int, queued bool) {
	t.tr.Emit(obs.Event{Kind: obs.EvWalk, Key: uint64(vpn), Aux: uint64(lat), Flag: queued})
}
func (t *eventTracer) llcFill(key, pc uint64, d pred.Decision, _ uint64) {
	t.tr.Emit(obs.Event{Kind: obs.EvLLCFill, Key: key, PC: pc, Flag: d.SetDP})
}
func (t *eventTracer) llcBypass(key, pc uint64, _ pred.Decision, _ uint64) {
	t.tr.Emit(obs.Event{Kind: obs.EvLLCBypass, Key: key, PC: pc})
}
func (t *eventTracer) llcEvict(victim cache.Block, _ cache.Gen, _ uint64) {
	t.tr.Emit(obs.Event{Kind: obs.EvLLCEvict, Key: victim.Key, Flag: victim.Accessed})
}

// intervalSampler records one time-series point every rec.Every accesses,
// covering the accesses since the previous one (or since it was attached,
// base), and marks each in the trace when a tracer is attached.
type intervalSampler struct {
	noEvents
	rec  *obs.IntervalRecorder
	tr   *obs.Tracer
	base snapshot
}

func (s *intervalSampler) every() uint64 { return s.rec.Every }

func (s *intervalSampler) tick(p *proc) {
	cur := p.snap()
	d := between(cur, s.base)
	lltConf, llcConf := cur.lltConf.Delta(s.base.lltConf), cur.llcConf.Delta(s.base.llcConf)
	s.base = cur
	samp := obs.IntervalSample{
		Access:           p.accesses,
		Cycle:            cur.cycles,
		Instructions:     d.Instructions,
		Walks:            d.Walks,
		ShadowHits:       d.ShadowFills,
		WalkQueueCycles:  d.WalkQueueCycles,
		IPC:              d.IPC,
		LLTMPKI:          d.LLTMPKI,
		LLCMPKI:          d.LLCMPKI,
		LLTBypassRate:    bypassRate(d.LLTBypasses, d.LLTMisses),
		LLCBypassRate:    bypassRate(d.LLCBypasses, d.LLCMisses),
		LLTTrueDead:      lltConf.TrueDead,
		LLTPremature:     lltConf.Premature,
		LLTMissed:        lltConf.Missed,
		LLTPrematureRate: lltConf.PrematureRate(),
		LLCTrueDead:      llcConf.TrueDead,
		LLCPremature:     llcConf.Premature,
		LLCMissed:        llcConf.Missed,
		LLCPrematureRate: llcConf.PrematureRate(),
	}
	if now := p.now(); p.walkerBusyUntil > now {
		samp.WalkerBacklog = p.walkerBusyUntil - now
	}
	if h, ok := p.tlbPred.(obs.CounterHistogrammer); ok {
		samp.PHISTHist = h.CounterHistogram()
	}
	if h, ok := p.llcPred.(obs.CounterHistogrammer); ok {
		samp.BHISTHist = h.CounterHistogram()
	}
	idx := s.rec.Add(samp)
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvInterval, Key: uint64(idx)})
	}
}

// bypassRate returns bypasses / misses (each miss is a fill opportunity;
// bypassed misses are included in the miss count).
func bypassRate(bypasses, misses uint64) float64 {
	if misses == 0 {
		return 0
	}
	return float64(bypasses) / float64(misses)
}
