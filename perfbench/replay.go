package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/pagetable"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/walker"
)

// Replays re-issue recorded calls through fresh structures built by each
// module's public constructor, with no simulator around them, and time one
// call in timeEvery per kind of call.

// timed calls f, timing it when h samples this call.
func timed(h *hookStats, f func()) {
	if h.begin() {
		t0 := h.start()
		f()
		h.end(t0)
		return
	}
	f()
}

// total is the modelled cost of every call h counted: calls × mean ns/op.
func (h hookStats) total() time.Duration {
	if ns := h.meanNs(); ns > 0 {
		return time.Duration(ns * float64(h.calls))
	}
	return 0
}

func newPageTable(cfg sim.Config) (*pagetable.PageTable, error) {
	alloc, err := pagetable.NewAllocator(cfg.PhysMemMB<<20/arch.PageSize, cfg.Alloc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return pagetable.New(alloc)
}

func cacheFor(cc sim.CacheConfig) (*cache.Cache, error) {
	return cache.New(cache.Config{Name: cc.Name, Sets: cc.SizeKB * 1024 / arch.BlockSize / cc.Ways,
		Ways: cc.Ways, Policy: cc.Policy})
}

// streamCosts are one cell's replayed shared-structure streams: ns/op
// sampled over the window, calls over the full streams.
type streamCosts struct {
	llt, lltFill     hookStats // LLT lookups, LLT fills
	walk             hookStats // walks (Walk plus page-table translate)
	llcLook, llcFill hookStats // LLC lookups, LLC fills (victim search included)
	inval            hookStats // back-invalidations of L2 and L1D
	walks, backInv   uint64    // over the full streams
}

// replayStreams replays the window a cell kept of its LLT stream, with a
// walk for every miss that walked, and of its LLC stream, with the
// back-invalidations its fills' victims cause. The window runs twice
// through the same fresh structures, untimed and then timed, so the timed
// round meets warm structures as the cell's calls did; the costs are then
// taken for every call of the full streams. Walks fetch their PTEs at a
// constant latency: the PTE fetches' cache traffic is in the LLC stream and
// the private caches' counts.
func replayStreams(cfg sim.Config, rec *cellRec) (streamCosts, error) {
	llt, err := tlb.New(cfg.LLT)
	if err != nil {
		return streamCosts{}, err
	}
	pt, err := newPageTable(cfg)
	if err != nil {
		return streamCosts{}, err
	}
	lat := cfg.L1D.Latency
	wk, err := walker.New(pt, cfg.PWC, func(arch.PAddr) arch.Lat { return lat })
	if err != nil {
		return streamCosts{}, err
	}
	var caches [3]*cache.Cache
	for i, c := range []sim.CacheConfig{cfg.L1D, cfg.L2, cfg.LLC} {
		if caches[i], err = cacheFor(c); err != nil {
			return streamCosts{}, err
		}
	}
	l1d, l2, llc := caches[0], caches[1], caches[2]
	lltEvs, llcEvs := rec.llt.window(), rec.llc.window()

	var now uint64
	round := func(sc *streamCosts) error {
		var werr error
		for _, ev := range lltEvs {
			now++
			key, kind := ev>>evKeyShift, ev&evKindMask
			hint := policy.InsertHint(ev >> evHintShift & 1)
			timed(&sc.llt, func() { llt.Inner().Lookup(key, now) })
			if kind == evFill || kind == evBypass {
				timed(&sc.walk, func() { _, werr = wk.Walk(arch.VPN(key)) })
				if werr != nil {
					return werr
				}
			}
			if kind == evFill || kind == evShadow {
				timed(&sc.lltFill, func() { llt.Fill(arch.VPN(key), arch.PFN(key), 0, hint, now) })
			}
		}
		for _, ev := range llcEvs {
			now++
			key, kind := ev>>evKeyShift, ev&evKindMask
			hint := policy.InsertHint(ev >> evHintShift & 1)
			timed(&sc.llcLook, func() { llc.Lookup(key, now) })
			if kind != evFill {
				continue
			}
			var victim cache.Block
			var evicted bool
			timed(&sc.llcFill, func() { _, victim, evicted = llc.Fill(key, hint, now) })
			if evicted {
				sc.backInv++
				timed(&sc.inval, func() {
					l2.Invalidate(victim.Key)
					l1d.Invalidate(victim.Key)
				})
			}
		}
		return nil
	}
	var warm, sc streamCosts
	if err := round(&warm); err != nil {
		return sc, err
	}
	if err := round(&sc); err != nil {
		return sc, err
	}
	// Scale the window's counts to the full streams.
	lk, ck := rec.llt.kinds, rec.llc.kinds
	sc.backInv = uint64(safeDiv(float64(sc.backInv), float64(sc.llcFill.calls)) * float64(ck[evFill]))
	sc.walks = lk[evFill] + lk[evBypass]
	sc.llt.calls, sc.lltFill.calls, sc.walk.calls = rec.llt.n, lk[evFill]+lk[evShadow], sc.walks
	sc.llcLook.calls, sc.llcFill.calls, sc.inval.calls = rec.llc.n, ck[evFill], sc.backInv
	return sc, nil
}

// privateCounts are a cell's calls into its private structures and core,
// from its sim.Result.
type privateCounts struct {
	tlbLookups, tlbFills           uint64
	l1dLookups, l2Lookups, l1Fills uint64
	accesses                       uint64
}

func countsOf(r sim.Result) privateCounts {
	return privateCounts{
		tlbLookups: r.ITLBLookups + r.DTLBLookups,
		tlbFills:   r.ITLBMisses + r.DTLBMisses,
		l1dLookups: r.L1DLookups,
		l2Lookups:  r.L2Lookups,
		l1Fills:    r.L1DMisses + r.L2Misses,
		accesses:   r.MemAccesses,
	}
}

func (c *privateCounts) add(d privateCounts) {
	c.tlbLookups += d.tlbLookups
	c.tlbFills += d.tlbFills
	c.l1dLookups += d.l1dLookups
	c.l2Lookups += d.l2Lookups
	c.l1Fills += d.l1Fills
	c.accesses += d.accesses
}

// privateCosts are per-op costs of the private structures and the timing
// core, sampled over one machine pass of a workload's trace.
type privateCosts struct {
	tlbLookup, tlbFill          hookStats
	l1dLookup, l2Lookup, l1Fill hookStats
	core                        hookStats
}

// estimate returns count × ns/op for the private TLBs, the private caches
// and the core, with the counts scaled by scale.
func (pc privateCosts) estimate(c privateCounts, scale float64) (tlbs, caches, core time.Duration) {
	ns := func(h hookStats, n uint64) float64 {
		if v := h.meanNs(); v > 0 {
			return v * float64(n) * scale
		}
		return 0
	}
	l2 := pc.l2Lookup
	if l2.sampled == 0 { // an L1-resident trace: L2 lookups cost like L1D ones
		l2 = pc.l1dLookup
	}
	tlbs = time.Duration(ns(pc.tlbLookup, c.tlbLookups) + ns(pc.tlbFill, c.tlbFills))
	caches = time.Duration(ns(pc.l1dLookup, c.l1dLookups) + ns(l2, c.l2Lookups) + ns(pc.l1Fill, c.l1Fills))
	core = time.Duration(ns(pc.core, c.accesses))
	return
}

// replayPrivate drives buf through fresh L1 TLBs, an L1D/L2 pair keyed by
// virtual block, and a timing core, looking every access up.
func replayPrivate(cfg sim.Config, buf *trace.Buffer) (privateCosts, error) {
	var pc privateCosts
	var tlbs [2]*tlb.TLB
	var err error
	for i, c := range []tlb.Config{cfg.L1ITLB, cfg.L1DTLB} {
		if tlbs[i], err = tlb.New(c); err != nil {
			return pc, err
		}
	}
	l1d, err := cacheFor(cfg.L1D)
	if err != nil {
		return pc, err
	}
	l2, err := cacheFor(cfg.L2)
	if err != nil {
		return pc, err
	}
	c, err := cpu.New(cfg.Core)
	if err != nil {
		return pc, err
	}
	rd := buf.Reader()
	var now uint64
	for left := buf.Len(); left > 0; {
		ch, err := rd.NextChunk(4096)
		if err != nil {
			return pc, err
		}
		if ch.Len() == 0 {
			return pc, fmt.Errorf("perfbench: trace ends %d accesses early", left)
		}
		for i := range ch.PC {
			now++
			for j, addr := range [2]uint64{ch.PC[i], ch.VA[i]} {
				t, vp := tlbs[j], arch.VAddr(addr).Page()
				var ok bool
				timed(&pc.tlbLookup, func() { _, ok = t.Lookup(vp, now) })
				if !ok {
					timed(&pc.tlbFill, func() { t.Fill(vp, arch.PFN(vp), 0, policy.InsertMRU, now) })
				}
			}
			key := ch.VA[i] >> arch.BlockShift
			var ok bool
			timed(&pc.l1dLookup, func() { _, ok = l1d.Lookup(key, now) })
			if !ok {
				timed(&pc.l2Lookup, func() { _, ok = l2.Lookup(key, now) })
				if !ok {
					timed(&pc.l1Fill, func() { l2.Fill(key, policy.InsertMRU, now) })
				}
				timed(&pc.l1Fill, func() { l1d.Fill(key, policy.InsertMRU, now) })
			}
			gap, dep := ch.Gap[i], ch.Flags[i]&trace.FlagDependent != 0
			timed(&pc.core, func() {
				if gap > 0 {
					c.Advance(uint64(gap))
				}
				c.Cycles()
				c.Memory(uint64(cfg.L1D.Latency), dep)
			})
		}
		left -= uint64(ch.Len())
	}
	return pc, nil
}
