package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/stats"
)

// AttachObserver connects an observability bundle to the system: the
// tracer receives the Figure 6/8 hook-point events (and is handed to
// predictors that emit their own), the metrics registry gains probes for
// every structure's counters, and the interval recorder is driven every
// Interval.Every accesses. Passing nil detaches everything. Each hook in
// the simulator is guarded by one pointer/integer check, so a detached
// system pays nothing on the access path. Single-core machines only; a
// larger machine publishes its metrics through AttachMetrics.
//
// Attach order is free: predictors installed after AttachObserver are
// wired by SetTLBPredictor/SetLLCPredictor. A metrics registry brings the
// lifetime histograms, which need entry times from the first access
// (enableHistograms), so attach one before running.
func (s *System) AttachObserver(o *obs.Observer) {
	s.singleCore("the observer (tracer and interval sampler)")
	p := s.cores[0]
	p.observer = o
	p.tr = nil
	p.intervalEvery = 0
	p.lltConf, p.llcConf = s.lltConf, s.llcConf
	p.histMemLat, p.histWalkDepth, p.histWalkLat = nil, nil, nil
	p.histLLTLife, p.histLLCLife = nil, nil
	if o == nil {
		return
	}
	p.tr = o.Tracer
	if p.tr != nil {
		p.tr.SetClock(func() (uint64, uint64) { return p.now(), p.accesses })
	}
	if o.Interval != nil && o.Interval.Every > 0 {
		p.intervalEvery = o.Interval.Every
	}
	if reg := o.RunRegistry(); reg != nil {
		p.enableQuality(reg)
		p.registerMetrics(reg)
	}
	if p.intervalEvery > 0 {
		p.intervalBase = p.snap()
	}
	p.observePredictors()
}

// AttachMetrics publishes every core's structure counters under a
// "coreN." prefix plus the machine-level scheduling counters, and enables
// per-core latency/lifetime histograms, for which the machine tracks entry
// times: attach before the first access. Registration is passive — results
// stay bit-identical with or without it.
func (s *System) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i, p := range s.cores {
		sub := reg.Sub(fmt.Sprintf("core%d.", i))
		p.enableHistograms(sub)
		p.registerMetrics(sub)
	}
	reg.RegisterProbe("multi.steps", func() float64 { return float64(s.counts.steps) })
	reg.RegisterProbe("multi.switches", func() float64 { return float64(s.counts.switches) })
	reg.RegisterProbe("multi.shootdowns", func() float64 { return float64(s.counts.shootdowns) })
	reg.RegisterProbe("multi.shootdown_flushed", func() float64 { return float64(s.counts.shootdownFlushed) })
	reg.RegisterProbe("multi.unmaps", func() float64 { return float64(s.counts.unmaps) })
	reg.RegisterProbe("multi.cores", func() float64 { return float64(len(s.cores)) })
	reg.RegisterProbe("multi.tenants", func() float64 { return float64(len(s.tenants)) })
}

// observePredictors hands the tracer and registry to the installed
// predictors; called from AttachObserver and the predictor setters so
// either ordering works.
func (p *proc) observePredictors() {
	if p.observer == nil {
		return
	}
	reg := p.observer.RunRegistry()
	for _, pr := range []any{p.tlbPred, p.llcPred} {
		if p.tr != nil {
			if ta, ok := pr.(obs.TraceAttacher); ok {
				ta.AttachTracer(p.tr)
			}
		}
		if reg != nil {
			if m, ok := pr.(obs.MetricSource); ok {
				m.RegisterMetrics(reg)
			}
		}
	}
}

// enableQuality turns on the passive quality telemetry that only exists
// when a metrics registry is attached: the confusion trackers mirroring
// the LLT and LLC (grading every dead prediction as true-dead, premature
// or missed; the machine's shared ones when EnableConfusionTracking ran)
// and the latency/lifetime histograms. Mirror construction cannot fail
// here — the geometries were already validated when the real structures
// were built — but a defensive nil keeps the hook disabled if it ever
// does.
func (p *proc) enableQuality(r *obs.Registry) {
	if p.lltConf == nil {
		if lt, ct, err := newMirrors(p.cfg, p.llt, p.llc, "llt", "llc", stats.NewConfusionTracker); err == nil {
			p.lltConf, p.llcConf = lt, ct
		}
	}
	p.enableHistograms(r)
}

// enableHistograms creates the latency/lifetime histograms in r. The
// lifetime histograms read the shared LLT's and LLC's entry times, so the
// machine starts tracking them here; attaching after the machine filled
// either structure is a programming error and panics.
func (p *proc) enableHistograms(r *obs.Registry) {
	if err := p.trackTimes(); err != nil {
		panic(fmt.Sprintf("sim: lifetime histograms: %v (attach before the first access)", err))
	}
	p.histMemLat = r.Histogram("hist.mem_latency")
	p.histWalkDepth = r.Histogram("hist.walk_depth")
	p.histWalkLat = r.Histogram("hist.walk_latency")
	p.histLLTLife = r.Histogram("hist.llt_lifetime")
	p.histLLCLife = r.Histogram("hist.llc_lifetime")
}

// registerMetrics publishes every structure's counters as probes. Probes
// are closures over the live structures, so a snapshot always reflects
// current state; per-run registry scopes (obs.Observer.BeginRun) keep
// successive runs apart.
func (p *proc) registerMetrics(r *obs.Registry) {
	cacheStats := func(prefix string, st func() cache.Stats) {
		r.RegisterProbe(prefix+".lookups", func() float64 { return float64(st().Lookups) })
		r.RegisterProbe(prefix+".hits", func() float64 { return float64(st().Hits) })
		r.RegisterProbe(prefix+".misses", func() float64 { return float64(st().Misses) })
		r.RegisterProbe(prefix+".fills", func() float64 { return float64(st().Fills) })
		r.RegisterProbe(prefix+".bypasses", func() float64 { return float64(st().Bypasses) })
		r.RegisterProbe(prefix+".evictions", func() float64 { return float64(st().Evictions) })
	}
	cacheStats("itlb", p.itlb.Stats)
	cacheStats("dtlb", p.dtlb.Stats)
	cacheStats("llt", p.llt.Stats)
	cacheStats("l1d", p.l1d.Stats)
	cacheStats("l2", p.l2.Stats)
	cacheStats("llc", p.llc.Stats)

	r.RegisterProbe("walker.walks", func() float64 { return float64(p.walk.Stats().Walks) })
	r.RegisterProbe("walker.pt_accesses", func() float64 { return float64(p.walk.Stats().PTAccesses) })
	r.RegisterProbe("walker.walk_cycles", func() float64 { return float64(p.walk.Stats().WalkCycles) })
	r.RegisterProbe("walker.full_walks", func() float64 { return float64(p.walk.Stats().FullWalks) })
	r.RegisterProbe("walker.queue_cycles", func() float64 { return float64(p.walkQueueCycles) })

	r.RegisterProbe("core.instructions", func() float64 { return float64(p.core.Instructions()) })
	r.RegisterProbe("core.cycles", func() float64 { return p.core.Cycles() })
	r.RegisterProbe("core.mem_ops", func() float64 { return float64(p.core.MemOps()) })
	r.RegisterProbe("core.ipc", func() float64 {
		if c := p.core.Cycles(); c > 0 {
			return float64(p.core.Instructions()) / c
		}
		return 0
	})

	r.RegisterProbe("sim.accesses", func() float64 { return float64(p.accesses) })
	r.RegisterProbe("sim.walks", func() float64 { return float64(p.walks) })
	r.RegisterProbe("sim.shadow_fills", func() float64 { return float64(p.shadowFills) })

	// Ground-truth prediction quality from the mirror-based confusion
	// trackers (nil-guarded: the trackers only exist while a registry is
	// attached, but probes may outlive a detach).
	confusion := func(prefix string, t func() *stats.ConfusionTracker) {
		counts := func() stats.Confusion {
			if ct := t(); ct != nil {
				return ct.Counts()
			}
			return stats.Confusion{}
		}
		r.RegisterProbe(prefix+".true_dead", func() float64 { return float64(counts().TrueDead) })
		r.RegisterProbe(prefix+".premature", func() float64 { return float64(counts().Premature) })
		r.RegisterProbe(prefix+".missed", func() float64 { return float64(counts().Missed) })
		r.RegisterProbe(prefix+".premature_rate", func() float64 { return counts().PrematureRate() })
		r.RegisterProbe(prefix+".coverage", func() float64 { return counts().CoverageRate() })
	}
	confusion("conf.llt", func() *stats.ConfusionTracker { return p.lltConf })
	confusion("conf.llc", func() *stats.ConfusionTracker { return p.llcConf })

	// Self-reported quality from predictors implementing obs.QualitySource
	// (dpPred's shadow table detects its own premature predictions). The
	// type assertion runs inside the closure so predictor swaps after
	// AttachObserver are picked up.
	quality := func(prefix string, cur func() any) {
		read := func() (uint64, uint64) {
			if q, ok := cur().(obs.QualitySource); ok {
				return q.PredictionQuality()
			}
			return 0, 0
		}
		r.RegisterProbe(prefix+".predictions", func() float64 {
			p, _ := read()
			return float64(p)
		})
		r.RegisterProbe(prefix+".premature_detected", func() float64 {
			_, d := read()
			return float64(d)
		})
	}
	quality("pred.tlb", func() any { return p.tlbPred })
	quality("pred.llc", func() any { return p.llcPred })
}

// sampleInterval emits one time-series point covering the accesses since
// the previous sample (or since AttachObserver). Runs off the hot path —
// once per intervalEvery accesses.
func (p *proc) sampleInterval() {
	cur := p.snap()
	b := p.intervalBase
	p.intervalBase = cur

	d := between(cur, b)
	samp := obs.IntervalSample{
		Access:          p.accesses,
		Cycle:           cur.cycles,
		Instructions:    d.Instructions,
		Walks:           d.Walks,
		ShadowHits:      d.ShadowFills,
		WalkQueueCycles: d.WalkQueueCycles,
		IPC:             d.IPC,
		LLTMPKI:         d.LLTMPKI,
		LLCMPKI:         d.LLCMPKI,
		LLTBypassRate:   bypassRate(d.LLTBypasses, d.LLTMisses),
		LLCBypassRate:   bypassRate(d.LLCBypasses, d.LLCMisses),
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
	if p.lltConf != nil {
		d := cur.lltConf.Delta(b.lltConf)
		samp.LLTTrueDead, samp.LLTPremature, samp.LLTMissed = d.TrueDead, d.Premature, d.Missed
		samp.LLTPrematureRate = d.PrematureRate()
	}
	if p.llcConf != nil {
		d := cur.llcConf.Delta(b.llcConf)
		samp.LLCTrueDead, samp.LLCPremature, samp.LLCMissed = d.TrueDead, d.Premature, d.Missed
		samp.LLCPrematureRate = d.PrematureRate()
	}
	idx := p.observer.Interval.Add(samp)
	if p.tr != nil {
		p.tr.Emit(obs.Event{Kind: obs.EvInterval, Key: uint64(idx)})
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
