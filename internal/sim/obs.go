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
// Interval.Every accesses. Passing nil detaches everything. Each one is
// an instrument on the core's access path (instrument.go), so a detached
// system pays one nil check per event site. Single-core machines only; a
// larger machine publishes its metrics through AttachMetrics.
//
// Attach order is free: predictors installed after AttachObserver are
// wired by SetTLBPredictor/SetLLCPredictor. A metrics registry brings the
// lifetime histograms, which need entry times from the first access
// (newHistograms), so attach one before running.
func (s *System) AttachObserver(o *obs.Observer) {
	s.singleCore("the observer (tracer and interval sampler)")
	p := s.cores[0]
	p.observer = o
	p.instrument(func(c *instruments) {
		c.conf, c.hist, c.tr, c.ivl = s.conf, nil, nil, nil
		c.published = o != nil
		if o == nil {
			return
		}
		if o.Tracer != nil {
			o.Tracer.SetClock(func() (uint64, uint64) { return p.now(), p.accesses })
			c.tr = &eventTracer{tr: o.Tracer}
		}
		if reg := o.RunRegistry(); reg != nil {
			// A registry brings the confusion mirrors (the machine's
			// shared ones when EnableConfusionTracking ran). Their
			// construction cannot fail here — the geometries were
			// validated when the real structures were built — but a
			// defensive check leaves them off if it ever does.
			if c.conf == nil {
				if m, err := newMirrors(p.cfg, p.llt, p.llc); err == nil {
					c.conf = &confusionMirrors{m}
				}
			}
			c.hist = newHistograms(p, reg)
			p.registerMetrics(reg)
		}
		if o.Interval != nil && o.Interval.Every > 0 {
			c.ivl = &intervalSampler{rec: o.Interval, tr: o.Tracer}
		}
	})
	if p.inst != nil && p.inst.ivl != nil {
		p.inst.ivl.base = p.snap()
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
		p.instrument(func(c *instruments) { c.hist, c.published = newHistograms(p, sub), true })
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
		if tr := p.observer.Tracer; tr != nil {
			if ta, ok := pr.(obs.TraceAttacher); ok {
				ta.AttachTracer(tr)
			}
		}
		if reg != nil {
			if m, ok := pr.(obs.MetricSource); ok {
				m.RegisterMetrics(reg)
			}
		}
	}
}

// registerMetrics publishes every structure's counters as probes. Probes
// are closures over the live structures, so a snapshot always reflects
// current state; per-run registry scopes (obs.Observer.ForkRun) keep
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

	// Ground-truth prediction quality from the confusion mirrors (zero
	// while none is attached; probes may outlive a detach).
	confusion := func(prefix string, counts func() stats.Confusion) {
		r.RegisterProbe(prefix+".true_dead", func() float64 { return float64(counts().TrueDead) })
		r.RegisterProbe(prefix+".premature", func() float64 { return float64(counts().Premature) })
		r.RegisterProbe(prefix+".missed", func() float64 { return float64(counts().Missed) })
		r.RegisterProbe(prefix+".premature_rate", func() float64 { return counts().PrematureRate() })
		r.RegisterProbe(prefix+".coverage", func() float64 { return counts().CoverageRate() })
	}
	confusion("conf.llt", func() stats.Confusion { c, _ := p.confusion(); return c })
	confusion("conf.llc", func() stats.Confusion { _, c := p.confusion(); return c })

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
