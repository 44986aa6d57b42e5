package sim

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/policy"
	"repro/internal/pool"
	"repro/internal/pred"
	"repro/internal/tlb"
	"repro/internal/walker"
	"repro/internal/xhash"
)

// proc is one core of the machine: its private L1 TLBs, L1D and L2, its
// page walker and timing core, plus the pointers into the shared LLT, LLC
// and predictors its access path reaches. Every access runs on a proc.
type proc struct {
	cfg Config

	itlb, dtlb, llt *tlb.TLB
	pt              *pagetable.PageTable // the running tenant's address space
	walk            *walker.Walker
	l1d, l2, llc    *cache.Cache
	core            *cpu.Core

	tlbPred pred.TLBPredictor
	llcPred pred.LLCPredictor
	tlbPref pred.TLBPrefetcher

	// Cached optional-interface views of the installed predictors,
	// refreshed whenever a predictor is set. The hot path tests these
	// nil-able fields instead of repeating type assertions per access.
	tlbObs pred.AccessObserver
	llcObs pred.AccessObserver
	tlbFF  pred.FillFinisher
	llcFF  pred.FillFinisher
	llcDOA pred.DOAPageListener
	// llcVictims is set when the LLC predictor reads evicted blocks
	// (every predictor but pred.NullLLC).
	llcVictims bool

	prefFills  uint64
	prefUseful uint64

	// inst is the core's composite instrument (instrument.go), nil unless
	// an instrument, an observer or metrics are attached. observer is
	// the attached observability bundle (AttachObserver), kept to wire
	// predictors installed after it.
	inst     *instruments
	observer *obs.Observer

	// Counters owned by the core.
	accesses    uint64
	walks       uint64
	shadowFills uint64

	// walkerBusyUntil models the single hardware page walker: concurrent
	// LLT misses queue behind it, so walk latency cannot be hidden by
	// memory-level parallelism (the paper's premise, §I).
	walkerBusyUntil uint64
	// walkQueueCycles accumulates time walks spent waiting for the
	// walker (reported for diagnostics).
	walkQueueCycles uint64

	// stepNow is the core cycle at the start of the current access. The
	// core's clock only moves in Advance (before the access) and Memory
	// (after it), so every structure touched within one access sees the
	// same timestamp; caching it avoids float→int conversions per probe.
	stepNow uint64

	// asidKey tags every virtual page number this core translates with
	// its running tenant's address-space identifier (the ASID shifted
	// above the VPN bits). Tenant 0's key is 0, which leaves every key
	// numerically unchanged. Context switches swap it.
	asidKey uint64

	// backInv, when set, replaces the local inclusive-LLC
	// back-invalidation with a fan-out across every core sharing the LLC
	// (set on machines with more than one core). nil keeps the
	// single-core behaviour.
	backInv func(key uint64)

	// Measurement baseline (set by StartMeasurement).
	base snapshot
}

// newProc builds one core over the shared LLT and LLC, running tenant t.
func newProc(cfg Config, pl *pool.Pool, llt *tlb.TLB, llc *cache.Cache, t *tenantState) (*proc, error) {
	p := &proc{cfg: cfg, llt: llt, llc: llc, pt: t.pt, asidKey: t.asidKey}
	var err error
	if p.itlb, err = tlb.New(cfg.L1ITLB); err != nil {
		return nil, err
	}
	if p.dtlb, err = tlb.New(cfg.L1DTLB); err != nil {
		return nil, err
	}
	if p.walk, err = walker.New(p.pt, cfg.PWC, p.ptFetch); err != nil {
		return nil, err
	}
	if p.l1d, err = newCache(cfg.L1D, pl); err != nil {
		return nil, err
	}
	if p.l2, err = newCache(cfg.L2, pl); err != nil {
		return nil, err
	}
	if p.core, err = cpu.New(cfg.Core); err != nil {
		return nil, err
	}
	p.setPredictors(pred.NullTLB{}, pred.NullLLC{})
	return p, nil
}

// newCache builds one data-cache level, tag-only: only an LLC predictor
// reads or writes a data cache's entries, and SetLLCPredictor gives the
// LLC its payload when it installs one. Its arrays come from pl.
func newCache(cc CacheConfig, pl *pool.Pool) (*cache.Cache, error) {
	return cache.New(cache.Config{Name: cc.Name, Sets: cc.sets(), Ways: cc.Ways, Policy: cc.Policy, TagOnly: true, Pool: pl})
}

// setPredictors installs the (shared) predictors and refreshes the cached
// optional-interface views the hot path tests (see the field comments).
func (p *proc) setPredictors(tp pred.TLBPredictor, lp pred.LLCPredictor) {
	p.tlbPred, p.llcPred = tp, lp
	p.tlbObs, _ = p.tlbPred.(pred.AccessObserver)
	p.tlbFF, _ = p.tlbPred.(pred.FillFinisher)
	p.llcObs, _ = p.llcPred.(pred.AccessObserver)
	p.llcFF, _ = p.llcPred.(pred.FillFinisher)
	p.llcDOA, _ = p.llcPred.(pred.DOAPageListener)
	_, null := p.llcPred.(pred.NullLLC)
	p.llcVictims = !null
}

// now returns the timestamp used for entry metadata: the core's cycle.
func (p *proc) now() uint64 { return uint64(p.core.Cycles()) }

// translate resolves a page through the TLB hierarchy, returning the extra
// latency beyond a (free) L1 TLB hit.
func (p *proc) translate(vpn arch.VPN, pc uint64, instr bool) (arch.Lat, arch.PFN, error) {
	// Qualify the page number with the current address space: TLB entries,
	// predictor state and page-walk-cache keys all become ASID-tagged. The
	// ASID occupies bits above the 36 VPN bits, which no radix index ever
	// consumes, so page-table walks see the qualified value transparently.
	vpn |= arch.VPN(p.asidKey)
	l1 := p.dtlb
	if instr {
		l1 = p.itlb
	}
	now := p.stepNow
	if pfn, ok := l1.Lookup(vpn, now); ok {
		return 0, pfn, nil
	}

	// Unified L2 TLB (LLT). AIP-style predictors observe every access.
	if p.tlbObs != nil {
		p.tlbObs.OnAccess(uint64(vpn))
	}
	if b, ok := p.llt.Inner().Lookup(uint64(vpn), now); ok {
		if b.Prefetched {
			p.prefUseful++
			b.Prefetched = false
		}
		p.tlbPred.OnHit(b)
		if p.inst != nil {
			p.inst.lltHit(vpn, now)
		}
		pfn := arch.PFN(b.Data)
		p.fillL1TLB(l1, vpn, pfn)
		return p.llt.Latency(), pfn, nil
	}

	// LLT miss: consult the predictor's victim buffer (shadow table)
	// before walking (Fig. 6a).
	if pfn, handled := p.tlbPred.OnMiss(vpn, pc); handled {
		p.shadowFills++
		d := pred.Decision{PCHash: uint16(xhash.PC(pc, 6))}
		if p.inst != nil {
			p.inst.shadowRefill(vpn, pfn, pc, d, now)
		}
		p.lltFill(vpn, pfn, d)
		p.fillL1TLB(l1, vpn, pfn)
		return p.llt.Latency(), pfn, nil
	}

	// Page walk. The hash of the PC rides in the MSHR (we simply pass
	// the PC to the fill decision). The single page walker serializes
	// concurrent walks: the effective latency includes queueing.
	p.walks++
	res, err := p.walk.Walk(vpn)
	if err != nil {
		return 0, 0, err
	}
	start := now
	walkerWasIdle := p.walkerBusyUntil <= start
	if !walkerWasIdle {
		p.walkQueueCycles += p.walkerBusyUntil - start
		start = p.walkerBusyUntil
	}
	p.walkerBusyUntil = start + uint64(res.Latency)
	effWalk := arch.Lat(p.walkerBusyUntil - now)
	d := p.tlbPred.OnFill(vpn, res.PFN, pc)
	if p.inst != nil {
		p.inst.walked(vpn, res.PFN, pc, effWalk, res.PTAccesses, !walkerWasIdle, d, now)
	}
	if d.Bypass {
		p.llt.RecordBypass()
		// Fig. 6b: announce the DOA page's frame to the LLC side.
		if p.llcDOA != nil {
			p.llcDOA.NotifyDOAPage(res.PFN)
		}
	} else {
		p.lltFill(vpn, res.PFN, d)
	}
	p.fillL1TLB(l1, vpn, res.PFN)

	// Extension: distance prefetching. Prefetch walks run strictly at
	// lower priority than demand walks: they are serviced in the
	// walker's idle slots and dropped outright while a backlog exists,
	// so prefetching never delays a demand walk (and consequently
	// cannot help a walker-saturated workload — the "does not perform
	// well across all applications" behaviour §VII cites).
	if p.tlbPref != nil {
		for _, cand := range p.tlbPref.OnMiss(vpn, pc) {
			if !walkerWasIdle {
				break
			}
			if _, resident := p.llt.Probe(cand); resident {
				continue
			}
			pfn, mapped := p.pt.TranslateIfMapped(cand)
			if !mapped {
				continue
			}
			nb, victim, evicted := p.llt.Fill(cand, pfn, 0, policy.InsertMRU, p.stepNow)
			nb.Prefetched = true
			if evicted {
				p.lltEvict(&victim)
			}
			p.prefFills++
		}
	}
	return p.llt.Latency() + effWalk, res.PFN, nil
}

// lltFill allocates an LLT entry and processes the resulting eviction.
func (p *proc) lltFill(vpn arch.VPN, pfn arch.PFN, d pred.Decision) {
	nb, victim, evicted := p.llt.Fill(vpn, pfn, d.PCHash, d.Hint, p.stepNow)
	nb.Sig = d.Sig
	if p.tlbFF != nil {
		p.tlbFF.OnFillDone(nb)
	}
	if evicted {
		p.lltEvict(&victim)
	}
}

// lltEvict hands an entry a demand or prefetch fill evicted from the LLT
// to the instruments and, unless a prefetch installed it, to the
// predictor (prefetched entries never train it).
func (p *proc) lltEvict(victim *cache.Block) {
	if p.inst != nil {
		p.inst.lltEvict(*victim, p.llt.Inner().EvictedGen(), p.stepNow)
	}
	if !victim.Prefetched {
		p.tlbPred.OnEvict(*victim)
	}
}

// fillL1TLB installs a translation in an L1 TLB; L1 evictions are silent
// (the translation is already in the LLT or was bypassed deliberately).
// Callers reach it only after vpn missed in l1 this very access, so the
// translation is never already resident and no residency probe is needed.
func (p *proc) fillL1TLB(l1 *tlb.TLB, vpn arch.VPN, pfn arch.PFN) {
	l1.Install(vpn, pfn, p.stepNow)
}

// ptFetch is the walker's window into the data caches: PTE fetches are
// physically addressed and traverse the hierarchy like any other access
// ("the page table contents are cached on the processor caches", §III).
func (p *proc) ptFetch(pa arch.PAddr) arch.Lat {
	return p.memAccess(pa, ptWalkerPC)
}

// ptWalkerPC is the pseudo-PC attributed to the hardware walker's fetches.
const ptWalkerPC = 0x00FF_FF00

// memAccess sends a physical access through L1D → L2 → LLC → memory and
// returns its latency. Fills propagate to all levels; LLC evictions
// back-invalidate the inner levels (inclusive LLC). Reads and writes take
// the same path: the clean-eviction model tracks no dirty state.
func (p *proc) memAccess(pa arch.PAddr, pc uint64) arch.Lat {
	now := p.stepNow
	key := uint64(pa.Block() >> arch.BlockShift)

	if _, ok := p.l1d.Lookup(key, now); ok {
		return p.cfg.L1D.Latency
	}
	if _, ok := p.l2.Lookup(key, now); ok {
		p.fillInner(p.l1d, key, now)
		return p.cfg.L2.Latency
	}

	if p.llcObs != nil {
		p.llcObs.OnAccess(key)
	}
	if b, ok := p.llc.Lookup(key, now); ok {
		p.llcPred.OnHit(b)
		if p.inst != nil {
			p.inst.llcHit(key, now)
		}
		p.fillInner(p.l2, key, now)
		p.fillInner(p.l1d, key, now)
		return p.cfg.LLC.Latency
	}

	// LLC miss → main memory; decide allocation (Fig. 8b).
	d := p.llcPred.OnFill(key, pc)
	if p.inst != nil {
		p.inst.llcMiss(key, pc, d, now)
	}
	if d.Bypass {
		p.llc.RecordBypass()
	} else {
		// The victim's Block is copied out only when something reads
		// it, the predictor or an instrument; back-invalidation needs
		// no more than its key.
		var victim cache.Block
		var into *cache.Block
		if p.llcVictims || p.inst != nil {
			into = &victim
		}
		// A tag-only LLC (no predictor) returns no block, and the null
		// predictor's decision leaves these fields zero anyway.
		nb, victimKey, evicted := p.llc.FillVictim(key, d.Hint, now, into)
		if nb != nil {
			nb.DP = d.SetDP
			nb.Sig = d.Sig
			nb.PCHash = d.PCHash
		}
		if p.llcFF != nil {
			p.llcFF.OnFillDone(nb)
		}
		if evicted {
			if into != nil {
				p.llcEvict(&victim)
			}
			// Inclusive LLC: drop inner copies — from every core
			// sharing the LLC when the machine installed the fan-out,
			// else locally.
			if p.backInv != nil {
				p.backInv(victimKey)
			} else {
				p.l2.Invalidate(victimKey)
				p.l1d.Invalidate(victimKey)
			}
		}
	}
	p.fillInner(p.l2, key, now)
	p.fillInner(p.l1d, key, now)
	return p.cfg.LLC.Latency + p.cfg.MemLatency
}

// llcEvict hands an evicted LLC block to the instruments and the
// predictor.
func (p *proc) llcEvict(victim *cache.Block) {
	if p.inst != nil {
		p.inst.llcEvict(*victim, p.llc.EvictedGen(), p.stepNow)
	}
	p.llcPred.OnEvict(*victim)
}

// blockFrame recovers the frame of a physical block number.
func blockFrame(blockNum uint64) arch.PFN {
	return arch.PFN(blockNum >> (arch.PageShift - arch.BlockShift))
}

// fillInner installs a block in an inner cache level; inner evictions are
// silent (clean-eviction model). Every call site sits on a path where key
// just missed in c (and nothing re-inserts it in between), so the block is
// never already resident and no residency probe is needed.
func (p *proc) fillInner(c *cache.Cache, key uint64, now uint64) {
	c.Install(key, policy.InsertMRU, now)
}
