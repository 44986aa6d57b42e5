// Package sim wires the substrates into the paper's full machine: split L1
// TLBs over a unified L2 TLB (the LLT), a radix page walker with page-walk
// caches whose PTE fetches traverse the data caches, a three-level
// inclusive cache hierarchy, and the timing core. Predictors plug into the
// LLT and LLC fill/evict paths exactly at the hook points Figures 6 and 8
// describe; instrumentation (accuracy mirrors, dead-entry samplers, the
// Table III correlation tracker) observes the same events.
package sim

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/walker"
	"repro/internal/xhash"
)

// System is one simulated machine instance.
type System struct {
	cfg Config

	itlb, dtlb, llt *tlb.TLB
	pt              *pagetable.PageTable
	walk            *walker.Walker
	l1d, l2, llc    *cache.Cache
	core            coreModel
	// cpuCore is the concrete core when the coreModel seam holds the real
	// timing model (the production case); the hot path calls it directly
	// so Advance/Memory/Cycles dispatch statically. nil when a test
	// substitutes a different coreModel.
	cpuCore *cpu.Core

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

	prefFills  uint64
	prefUseful uint64

	// Instrumentation (nil unless enabled).
	lltAcc      *stats.AccuracyTracker
	llcAcc      *stats.AccuracyTracker
	lltSampler  *stats.DeadSampler
	llcSampler  *stats.DeadSampler
	corr        *stats.DOACorrelation
	sampleEvery uint64

	// Observability (nil/zero unless attached; see AttachObserver). tr
	// and intervalEvery are cached from observer so the hot-path guards
	// are a single load each.
	observer      *obs.Observer
	tr            *obs.Tracer
	intervalEvery uint64
	intervalBase  snapshot

	// Predictor-quality telemetry and latency/lifetime histograms,
	// enabled by AttachObserver when the observer carries a metrics
	// registry (all nil otherwise, so the disabled hot path pays one nil
	// check per hook). All of it is passive: mirrors and histograms only
	// observe, so results are bit-identical with or without it.
	lltConf, llcConf *stats.ConfusionTracker
	histMemLat       *obs.Histogram // total memory latency per access
	histWalkDepth    *obs.Histogram // PTE fetches per page walk (1–4)
	histWalkLat      *obs.Histogram // effective walk latency, queueing included
	histLLTLife      *obs.Histogram // LLT entry residency, fill → eviction
	histLLCLife      *obs.Histogram // LLC block residency, fill → eviction

	// Counters owned by the system.
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

	// asidKey tags every virtual page number this system translates with
	// its current address-space identifier (the tenant's ASID shifted
	// above the VPN bits). 0 — the single-address-space case — leaves all
	// keys numerically unchanged, so a standalone System behaves exactly
	// as before. MultiSystem swaps it on context switches.
	asidKey uint64

	// backInv, when set, replaces the local inclusive-LLC
	// back-invalidation with a fan-out across every core sharing the LLC
	// (MultiSystem wires it). nil keeps the single-core behaviour.
	backInv func(key uint64)

	// Measurement baseline (set by StartMeasurement).
	base snapshot

	// scratch holds the columns RunContext fills from a generator that
	// cannot serve chunks itself; kept so a warm run allocates nothing.
	scratch trace.Chunk
}

// coreModel is the slice of the timing core the system needs; it lets
// tests substitute a fixed-latency core.
type coreModel interface {
	Advance(n uint64)
	Memory(latency uint64, dependent bool)
	Cycles() float64
	Instructions() uint64
	MemOps() uint64
	MemLatencyStats() (sum, ops uint64)
	AvgMemLatency() float64
}

// New builds a machine from the configuration with null predictors.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, tlbPred: pred.NullTLB{}, llcPred: pred.NullLLC{},
		sampleEvery: 50_000}

	var err error
	if s.itlb, err = tlb.New(cfg.L1ITLB); err != nil {
		return nil, err
	}
	if s.dtlb, err = tlb.New(cfg.L1DTLB); err != nil {
		return nil, err
	}
	if s.llt, err = tlb.New(cfg.LLT); err != nil {
		return nil, err
	}
	alloc, err := pagetable.NewAllocator(cfg.PhysMemMB<<20/arch.PageSize, cfg.Alloc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if s.pt, err = pagetable.New(alloc); err != nil {
		return nil, err
	}
	if s.walk, err = walker.New(s.pt, cfg.PWC, s.ptFetch); err != nil {
		return nil, err
	}
	mk := func(cc CacheConfig) (*cache.Cache, error) {
		return cache.New(cache.Config{Name: cc.Name, Sets: cc.sets(), Ways: cc.Ways, Policy: cc.Policy})
	}
	if s.l1d, err = mk(cfg.L1D); err != nil {
		return nil, err
	}
	if s.l2, err = mk(cfg.L2); err != nil {
		return nil, err
	}
	if s.llc, err = mk(cfg.LLC); err != nil {
		return nil, err
	}
	core, err := newCore(cfg.Core)
	if err != nil {
		return nil, err
	}
	s.core = core
	s.cpuCore, _ = core.(*cpu.Core)
	s.cachePredIfaces()
	return s, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// SetTLBPredictor installs the LLT predictor (nil restores the baseline).
func (s *System) SetTLBPredictor(p pred.TLBPredictor) {
	if p == nil {
		p = pred.NullTLB{}
	}
	s.tlbPred = p
	s.cachePredIfaces()
	s.observePredictors()
}

// SetLLCPredictor installs the LLC predictor (nil restores the baseline).
func (s *System) SetLLCPredictor(p pred.LLCPredictor) {
	if p == nil {
		p = pred.NullLLC{}
	}
	s.llcPred = p
	s.cachePredIfaces()
	s.observePredictors()
}

// cachePredIfaces refreshes the optional-interface views of the installed
// predictors (see the field comments).
func (s *System) cachePredIfaces() {
	s.tlbObs, _ = s.tlbPred.(pred.AccessObserver)
	s.tlbFF, _ = s.tlbPred.(pred.FillFinisher)
	s.llcObs, _ = s.llcPred.(pred.AccessObserver)
	s.llcFF, _ = s.llcPred.(pred.FillFinisher)
	s.llcDOA, _ = s.llcPred.(pred.DOAPageListener)
}

// SetTLBPrefetcher installs a TLB prefetcher (extension; nil disables).
// Prefetched translations are installed in the LLT off the critical path,
// consuming page-walker occupancy but adding no latency to the triggering
// miss.
func (s *System) SetTLBPrefetcher(p pred.TLBPrefetcher) { s.tlbPref = p }

// PrefetchStats reports (fills installed, fills that later hit).
func (s *System) PrefetchStats() (issued, useful uint64) {
	return s.prefFills, s.prefUseful
}

// LLT exposes the last-level TLB (predictor constructors need its backing
// structure).
func (s *System) LLT() *tlb.TLB { return s.llt }

// LLC exposes the last-level cache.
func (s *System) LLC() *cache.Cache { return s.llc }

// Walker exposes the page walker (for stats).
func (s *System) Walker() *walker.Walker { return s.walk }

// PageTable exposes the page table (for stats).
func (s *System) PageTable() *pagetable.PageTable { return s.pt }

// Config returns the machine configuration.
func (s *System) Config() Config { return s.cfg }

// EnableAccuracyTracking creates the mirror structures that grade LLT and
// LLC fill-time DOA predictions (§VI-C).
func (s *System) EnableAccuracyTracking() error {
	la, err := stats.NewAccuracyTracker("LLT", s.llt.Inner().Sets(), s.llt.Inner().Ways(), s.cfg.LLT.Policy)
	if err != nil {
		return err
	}
	ca, err := stats.NewAccuracyTracker("LLC", s.llc.Sets(), s.llc.Ways(), s.cfg.LLC.Policy)
	if err != nil {
		return err
	}
	s.lltAcc, s.llcAcc = la, ca
	return nil
}

// EnableCharacterization creates the §IV dead-entry samplers and the
// Table III correlation tracker. sampleEvery is the number of data
// accesses between residency snapshots (0 keeps the default).
func (s *System) EnableCharacterization(sampleEvery uint64) {
	if sampleEvery != 0 {
		s.sampleEvery = sampleEvery
	}
	s.lltSampler = stats.NewDeadSampler()
	s.llcSampler = stats.NewDeadSampler()
	s.corr = stats.NewDOACorrelation()
}

// now returns the timestamp used for entry metadata: the core's cycle.
func (s *System) now() uint64 { return uint64(s.core.Cycles()) }

// Run feeds n accesses from the generator. A generator that latches an
// error mid-stream (trace.ErrGenerator) fails the run rather than feeding
// the simulator its repeated final access.
func (s *System) Run(g trace.Generator, n uint64) error {
	return s.RunContext(context.Background(), g, n)
}

// ctxCheckStride is the longest chunk a run draws from its generator and
// so the coarsest granularity of its context checks. It is a power of two
// so stride arithmetic compiles to masks, and coarse enough to be
// invisible next to the per-access simulation work.
const ctxCheckStride = 4096

// RunContext is Run with cancellation. It draws the generator in columnar
// chunks of at most ctxCheckStride accesses and feeds each through the
// batched loop, checking ctx before every chunk and stopping with ctx's
// error when it is canceled. The generator ends exactly n records ahead.
func (s *System) RunContext(ctx context.Context, g trace.Generator, n uint64) error {
	src := newChunkSource(g, &s.scratch)
	var m batchMemo
	m.reset(s)
	done := ctx.Done()
	for i := uint64(0); i < n; {
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("sim: canceled at access %d of %d: %w", i, n, ctx.Err())
			default:
			}
		}
		c := src.next(int(min(n-i, ctxCheckStride)))
		if at, err := s.runBatch(&m, &c, 0, c.Len()); err != nil {
			return fmt.Errorf("sim: access %d: %w", i+uint64(at), err)
		}
		i += uint64(c.Len())
	}
	if err := trace.GeneratorErr(g); err != nil {
		return fmt.Errorf("sim: after %d accesses: %w", n, err)
	}
	return nil
}

// translate resolves a page through the TLB hierarchy, returning the extra
// latency beyond a (free) L1 TLB hit.
func (s *System) translate(vpn arch.VPN, pc uint64, instr bool) (arch.Lat, arch.PFN, error) {
	// Qualify the page number with the current address space: TLB entries,
	// predictor state and page-walk-cache keys all become ASID-tagged. The
	// ASID occupies bits above the 36 VPN bits, which no radix index ever
	// consumes, so page-table walks see the qualified value transparently.
	vpn |= arch.VPN(s.asidKey)
	l1 := s.dtlb
	if instr {
		l1 = s.itlb
	}
	now := s.stepNow
	if pfn, ok := l1.Lookup(vpn, now); ok {
		return 0, pfn, nil
	}

	// Unified L2 TLB (LLT). AIP-style predictors observe every access.
	if s.tlbObs != nil {
		s.tlbObs.OnAccess(uint64(vpn))
	}
	if b, ok := s.llt.Inner().Lookup(uint64(vpn), now); ok {
		if b.Prefetched {
			s.prefUseful++
			b.Prefetched = false
		}
		s.tlbPred.OnHit(b)
		if s.lltAcc != nil {
			s.lltAcc.Access(uint64(vpn), false, now)
		}
		if s.lltConf != nil {
			s.lltConf.Access(uint64(vpn), false, now)
		}
		pfn := arch.PFN(b.Data)
		s.fillL1TLB(l1, vpn, pfn)
		return s.llt.Latency(), pfn, nil
	}

	// LLT miss: consult the predictor's victim buffer (shadow table)
	// before walking (Fig. 6a).
	if pfn, handled := s.tlbPred.OnMiss(vpn, pc); handled {
		s.shadowFills++
		if s.tr != nil {
			s.tr.Emit(obs.Event{Kind: obs.EvShadowHit, Key: uint64(vpn), Aux: uint64(pfn), PC: pc})
		}
		s.lltFill(vpn, pfn, pc, pred.Decision{PCHash: uint16(xhash.PC(pc, 6))})
		if s.lltAcc != nil {
			s.lltAcc.Access(uint64(vpn), false, now)
		}
		if s.lltConf != nil {
			s.lltConf.Access(uint64(vpn), false, now)
		}
		s.fillL1TLB(l1, vpn, pfn)
		return s.llt.Latency(), pfn, nil
	}

	// Page walk. The hash of the PC rides in the MSHR (we simply pass
	// the PC to the fill decision). The single page walker serializes
	// concurrent walks: the effective latency includes queueing.
	s.walks++
	res, err := s.walk.Walk(vpn)
	if err != nil {
		return 0, 0, err
	}
	start := now
	walkerWasIdle := s.walkerBusyUntil <= start
	if !walkerWasIdle {
		s.walkQueueCycles += s.walkerBusyUntil - start
		start = s.walkerBusyUntil
	}
	s.walkerBusyUntil = start + uint64(res.Latency)
	effWalk := arch.Lat(s.walkerBusyUntil - now)
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvWalk, Key: uint64(vpn), Aux: uint64(effWalk), Flag: !walkerWasIdle})
	}
	if s.histWalkDepth != nil {
		s.histWalkDepth.Observe(uint64(res.PTAccesses))
		s.histWalkLat.Observe(uint64(effWalk))
	}
	d := s.tlbPred.OnFill(vpn, res.PFN, pc)
	if s.lltAcc != nil {
		s.lltAcc.Access(uint64(vpn), d.PredictDOA, now)
	}
	if s.lltConf != nil {
		s.lltConf.Access(uint64(vpn), d.PredictDOA, now)
	}
	if d.Bypass {
		s.llt.RecordBypass()
		if s.tr != nil {
			s.tr.Emit(obs.Event{Kind: obs.EvLLTBypass, Key: uint64(vpn), Aux: uint64(res.PFN), PC: pc})
		}
		// Fig. 6b: announce the DOA page's frame to the LLC side.
		if s.llcDOA != nil {
			s.llcDOA.NotifyDOAPage(res.PFN)
		}
	} else {
		s.lltFill(vpn, res.PFN, pc, d)
	}
	s.fillL1TLB(l1, vpn, res.PFN)

	// Extension: distance prefetching. Prefetch walks run strictly at
	// lower priority than demand walks: they are serviced in the
	// walker's idle slots and dropped outright while a backlog exists,
	// so prefetching never delays a demand walk (and consequently
	// cannot help a walker-saturated workload — the "does not perform
	// well across all applications" behaviour §VII cites).
	if s.tlbPref != nil {
		for _, cand := range s.tlbPref.OnMiss(vpn, pc) {
			if !walkerWasIdle {
				break
			}
			if _, resident := s.llt.Probe(cand); resident {
				continue
			}
			pfn, mapped := s.pt.TranslateIfMapped(cand)
			if !mapped {
				continue
			}
			nb, victim, evicted := s.llt.Fill(cand, pfn, 0, policy.InsertMRU, s.stepNow)
			nb.Prefetched = true
			if evicted && !victim.Prefetched {
				s.tlbPred.OnEvict(victim)
				if s.lltSampler != nil {
					s.lltSampler.OnEvict(victim, s.stepNow)
				}
			}
			s.prefFills++
		}
	}
	return s.llt.Latency() + effWalk, res.PFN, nil
}

// lltFill allocates an LLT entry and processes the resulting eviction.
func (s *System) lltFill(vpn arch.VPN, pfn arch.PFN, pc uint64, d pred.Decision) {
	now := s.stepNow
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvLLTFill, Key: uint64(vpn), Aux: uint64(pfn), PC: pc})
	}
	nb, victim, evicted := s.llt.Fill(vpn, pfn, d.PCHash, d.Hint, now)
	nb.Sig = d.Sig
	if s.tlbFF != nil {
		s.tlbFF.OnFillDone(nb)
	}
	if !evicted {
		return
	}
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvLLTEvict, Key: victim.Key, Aux: victim.Data, Flag: victim.Accessed})
	}
	if s.histLLTLife != nil {
		s.histLLTLife.Observe(now - victim.FillTime)
	}
	if !victim.Prefetched {
		s.tlbPred.OnEvict(victim)
	}
	if s.lltSampler != nil {
		s.lltSampler.OnEvict(victim, now)
	}
	if s.corr != nil {
		s.corr.OnPageEvict(arch.PFN(victim.Data), !victim.Accessed)
	}
}

// fillL1TLB installs a translation in an L1 TLB; L1 evictions are silent
// (the translation is already in the LLT or was bypassed deliberately).
// Callers reach it only after vpn missed in l1 this very access, so the
// translation is never already resident and no residency probe is needed.
func (s *System) fillL1TLB(l1 *tlb.TLB, vpn arch.VPN, pfn arch.PFN) {
	l1.Install(vpn, pfn, s.stepNow)
}

// ptFetch is the walker's window into the data caches: PTE fetches are
// physically addressed and traverse the hierarchy like any other access
// ("the page table contents are cached on the processor caches", §III).
func (s *System) ptFetch(pa arch.PAddr) arch.Lat {
	return s.memAccess(pa, ptWalkerPC, false)
}

// ptWalkerPC is the pseudo-PC attributed to the hardware walker's fetches.
const ptWalkerPC = 0x00FF_FF00

// memAccess sends a physical access through L1D → L2 → LLC → memory and
// returns its latency. Fills propagate to all levels; LLC evictions
// back-invalidate the inner levels (inclusive LLC).
func (s *System) memAccess(pa arch.PAddr, pc uint64, write bool) arch.Lat {
	now := s.stepNow
	key := uint64(pa.Block() >> arch.BlockShift)

	if b, ok := s.l1d.Lookup(key, now); ok {
		b.Dirty = b.Dirty || write
		return s.cfg.L1D.Latency
	}
	if _, ok := s.l2.Lookup(key, now); ok {
		s.fillInner(s.l1d, key, write, now)
		return s.cfg.L2.Latency
	}

	if s.llcObs != nil {
		s.llcObs.OnAccess(key)
	}
	if b, ok := s.llc.Lookup(key, now); ok {
		s.llcPred.OnHit(b)
		if s.llcAcc != nil {
			s.llcAcc.Access(key, false, now)
		}
		if s.llcConf != nil {
			s.llcConf.Access(key, false, now)
		}
		s.fillInner(s.l2, key, false, now)
		s.fillInner(s.l1d, key, write, now)
		return s.cfg.LLC.Latency
	}

	// LLC miss → main memory; decide allocation (Fig. 8b).
	d := s.llcPred.OnFill(key, pc)
	if s.llcAcc != nil {
		s.llcAcc.Access(key, d.PredictDOA, now)
	}
	if s.llcConf != nil {
		s.llcConf.Access(key, d.PredictDOA, now)
	}
	if d.Bypass {
		s.llc.RecordBypass()
		if s.tr != nil {
			s.tr.Emit(obs.Event{Kind: obs.EvLLCBypass, Key: key, PC: pc})
		}
	} else {
		if s.tr != nil {
			s.tr.Emit(obs.Event{Kind: obs.EvLLCFill, Key: key, PC: pc, Flag: d.SetDP})
		}
		nb, victim, evicted := s.llc.Fill(key, d.Hint, now)
		nb.DP = d.SetDP
		nb.Sig = d.Sig
		nb.PCHash = d.PCHash
		if s.llcFF != nil {
			s.llcFF.OnFillDone(nb)
		}
		if evicted {
			if s.tr != nil {
				s.tr.Emit(obs.Event{Kind: obs.EvLLCEvict, Key: victim.Key, Flag: victim.Accessed})
			}
			if s.histLLCLife != nil {
				s.histLLCLife.Observe(now - victim.FillTime)
			}
			s.llcPred.OnEvict(victim)
			if s.llcSampler != nil {
				s.llcSampler.OnEvict(victim, now)
			}
			if s.corr != nil {
				s.corr.OnBlockEvict(blockFrame(victim.Key), victim.Hits)
			}
			// Inclusive LLC: drop inner copies — from every core
			// sharing the LLC when MultiSystem installed the fan-out,
			// else locally.
			if s.backInv != nil {
				s.backInv(victim.Key)
			} else {
				s.l2.Invalidate(victim.Key)
				s.l1d.Invalidate(victim.Key)
			}
		}
	}
	s.fillInner(s.l2, key, false, now)
	s.fillInner(s.l1d, key, write, now)
	return s.cfg.LLC.Latency + s.cfg.MemLatency
}

// blockFrame recovers the frame of a physical block number.
func blockFrame(blockNum uint64) arch.PFN {
	return arch.PFN(blockNum >> (arch.PageShift - arch.BlockShift))
}

// fillInner installs a block in an inner cache level; inner evictions are
// silent (clean-eviction model). Every call site sits on a path where key
// just missed in c (and nothing re-inserts it in between), so the block is
// never already resident and no residency probe is needed.
func (s *System) fillInner(c *cache.Cache, key uint64, write bool, now uint64) {
	c.Install(key, policy.InsertMRU, now).Dirty = write
}

// Finish resolves end-of-run instrumentation: samplers flush residents,
// the confusion trackers grade entries still resident in their mirrors,
// and the correlation tracker classifies pages still in the LLT.
func (s *System) Finish() {
	if s.lltSampler != nil {
		s.lltSampler.Finish(s.llt.Inner())
		s.llcSampler.Finish(s.llc)
	}
	if s.lltConf != nil {
		s.lltConf.Flush()
	}
	if s.llcConf != nil {
		s.llcConf.Flush()
	}
	if s.corr != nil {
		s.llt.Inner().ForEach(func(_, _ int, b *cache.Block) {
			s.corr.OnPageResident(arch.PFN(b.Data), !b.Accessed)
		})
	}
}
