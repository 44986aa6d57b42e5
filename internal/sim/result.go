package sim

import (
	"repro/internal/stats"
)

// snapshot captures the monotone counters a measurement subtracts.
type snapshot struct {
	instructions uint64
	cycles       float64
	accesses     uint64
	walks        uint64
	shadowFills  uint64
	lltLookups   uint64
	lltMisses    uint64
	llcLookups   uint64
	llcMisses    uint64
	llcBypasses  uint64
	lltBypasses  uint64
	ptAccesses   uint64
	walkCycles   uint64
	walkQueue    uint64

	l1dLookups, l1dMisses   uint64
	l2Lookups, l2Misses     uint64
	itlbLookups, itlbMisses uint64
	dtlbLookups, dtlbMisses uint64
	pwcHits                 [3]uint64
	fullWalks               uint64

	memLatSum, memOps uint64

	// Confusion-tracker classifications (zero when tracking is off).
	lltConf, llcConf stats.Confusion
}

func (p *proc) snap() snapshot {
	llt := p.llt.Stats()
	llc := p.llc.Stats()
	l1d := p.l1d.Stats()
	l2 := p.l2.Stats()
	itlb := p.itlb.Stats()
	dtlb := p.dtlb.Stats()
	wk := p.walk.Stats()
	latSum, memOps := p.core.MemLatencyStats()
	lltConf, llcConf := p.confusion()
	return snapshot{
		lltConf: lltConf, llcConf: llcConf,
		l1dLookups: l1d.Lookups, l1dMisses: l1d.Misses,
		l2Lookups: l2.Lookups, l2Misses: l2.Misses,
		itlbLookups: itlb.Lookups, itlbMisses: itlb.Misses,
		dtlbLookups: dtlb.Lookups, dtlbMisses: dtlb.Misses,
		pwcHits:      wk.PWCHits,
		fullWalks:    wk.FullWalks,
		instructions: p.core.Instructions(),
		cycles:       p.core.Cycles(),
		accesses:     p.accesses,
		walks:        p.walks,
		shadowFills:  p.shadowFills,
		lltLookups:   llt.Lookups,
		lltMisses:    llt.Misses,
		llcLookups:   llc.Lookups,
		llcMisses:    llc.Misses,
		llcBypasses:  llc.Bypasses,
		lltBypasses:  llt.Bypasses,
		ptAccesses:   wk.PTAccesses,
		walkCycles:   wk.WalkCycles,
		walkQueue:    p.walkQueueCycles,
		memLatSum:    latSum,
		memOps:       memOps,
	}
}

// Result summarizes a measured region.
type Result struct {
	// Instructions and Cycles cover the measured region; IPC is their
	// ratio.
	Instructions uint64
	Cycles       float64
	IPC          float64

	// MemAccesses is the number of trace records processed.
	MemAccesses uint64

	// LLT-side counters. Walks excludes misses served by a predictor's
	// victim buffer; LLTMPKI is walks per kilo-instruction (the paper's
	// LLT miss metric — every walk is a real page-table walk).
	LLTLookups, LLTMisses, Walks, ShadowFills, LLTBypasses uint64
	LLTMPKI                                                float64

	// LLC-side counters; LLCMPKI is LLC misses per kilo-instruction.
	LLCLookups, LLCMisses, LLCBypasses uint64
	LLCMPKI                            float64

	// PTAccesses is the number of PTE fetches issued by the walker.
	PTAccesses uint64
	// WalkCycles is the summed raw walk latency; WalkQueueCycles is the
	// additional time walks queued behind the single page walker.
	WalkCycles, WalkQueueCycles uint64

	// Per-level breakdowns: the inner cache levels, split L1 TLBs and
	// the page-walk caches.
	L1DLookups, L1DMisses   uint64
	L2Lookups, L2Misses     uint64
	ITLBLookups, ITLBMisses uint64
	DTLBLookups, DTLBMisses uint64
	// PWCHits counts page-walk-cache hits per level (0 = PDE cache);
	// FullWalks counts walks that missed every PWC level.
	PWCHits   [3]uint64
	FullWalks uint64

	// AvgMemLatency is the mean hierarchy latency per memory op over the
	// measured region.
	AvgMemLatency float64

	// Instrumentation results (zero values when not enabled).
	LLTAccuracy stats.AccuracyResult
	LLCAccuracy stats.AccuracyResult
	LLTDead     stats.DeadResult
	LLCDead     stats.DeadResult
	Correlation stats.CorrelationResult

	// Multi-core and multi-tenant fields, zero — and absent from the
	// JSON — on a plain single-core machine. On a machine with several
	// cores the fields above are machine totals: private counters are
	// summed, the shared LLT/LLC counters and accuracy are the shared
	// structures' own, Cycles is the slowest core's (cores run in
	// parallel), IPC is aggregate throughput (summed instructions over
	// those cycles), the MPKIs are per summed kilo-instruction and
	// AvgMemLatency is weighted by each core's accesses. PerCore then
	// holds each core's own Result.
	PerCore []Result `json:",omitempty"`
	// Scheduling counters over the measured region.
	Switches         uint64 `json:",omitempty"`
	Shootdowns       uint64 `json:",omitempty"`
	ShootdownFlushed uint64 `json:",omitempty"`
	Unmaps           uint64 `json:",omitempty"`
	// Shared-structure ground-truth grading (nil unless
	// EnableConfusionTracking ran).
	LLTConfusion *stats.Confusion `json:",omitempty"`
	LLCConfusion *stats.Confusion `json:",omitempty"`
}

// result computes the core's summary for everything since
// StartMeasurement, with its instruments' fields. The shared structures'
// counters (LLT, LLC) and the shared accuracy mirrors are machine-global,
// so they are the same on every core.
func (p *proc) result() Result {
	r := between(p.snap(), p.base)
	if p.inst != nil {
		p.inst.report(&r)
	}
	return r
}

// between returns the counters, and the rates derived from them, of the
// activity between snapshots b and cur.
func between(cur, b snapshot) Result {
	r := Result{
		Instructions:    cur.instructions - b.instructions,
		Cycles:          cur.cycles - b.cycles,
		MemAccesses:     cur.accesses - b.accesses,
		LLTLookups:      cur.lltLookups - b.lltLookups,
		LLTMisses:       cur.lltMisses - b.lltMisses,
		Walks:           cur.walks - b.walks,
		ShadowFills:     cur.shadowFills - b.shadowFills,
		LLTBypasses:     cur.lltBypasses - b.lltBypasses,
		LLCLookups:      cur.llcLookups - b.llcLookups,
		LLCMisses:       cur.llcMisses - b.llcMisses,
		LLCBypasses:     cur.llcBypasses - b.llcBypasses,
		PTAccesses:      cur.ptAccesses - b.ptAccesses,
		WalkCycles:      cur.walkCycles - b.walkCycles,
		WalkQueueCycles: cur.walkQueue - b.walkQueue,
		L1DLookups:      cur.l1dLookups - b.l1dLookups,
		L1DMisses:       cur.l1dMisses - b.l1dMisses,
		L2Lookups:       cur.l2Lookups - b.l2Lookups,
		L2Misses:        cur.l2Misses - b.l2Misses,
		ITLBLookups:     cur.itlbLookups - b.itlbLookups,
		ITLBMisses:      cur.itlbMisses - b.itlbMisses,
		DTLBLookups:     cur.dtlbLookups - b.dtlbLookups,
		DTLBMisses:      cur.dtlbMisses - b.dtlbMisses,
		FullWalks:       cur.fullWalks - b.fullWalks,
	}
	for i := range r.PWCHits {
		r.PWCHits[i] = cur.pwcHits[i] - b.pwcHits[i]
	}
	if ops := cur.memOps - b.memOps; ops > 0 {
		r.AvgMemLatency = float64(cur.memLatSum-b.memLatSum) / float64(ops)
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / r.Cycles
	}
	if r.Instructions > 0 {
		ki := float64(r.Instructions) / 1000
		r.LLTMPKI = float64(r.Walks) / ki
		r.LLCMPKI = float64(r.LLCMisses) / ki
	}
	return r
}

// Result computes the summary for everything since StartMeasurement: a
// single core's own numbers, or the machine totals with every core's
// Result in PerCore.
func (s *System) Result() Result {
	var r Result
	if len(s.cores) == 1 {
		r = s.cores[0].result()
	} else {
		r = machineTotals(s.cores)
	}
	c, b := s.counts, s.base
	r.Switches = c.switches - b.switches
	r.Shootdowns = c.shootdowns - b.shootdowns
	r.ShootdownFlushed = c.shootdownFlushed - b.shootdownFlushed
	r.Unmaps = c.unmaps - b.unmaps
	if s.conf != nil {
		lc, cc := s.conf.llt.Counts(), s.conf.llc.Counts()
		r.LLTConfusion, r.LLCConfusion = &lc, &cc
	}
	return r
}

// machineTotals combines per-core Results into the machine's (see the
// Result field comments).
func machineTotals(cores []*proc) Result {
	per := make([]Result, len(cores))
	for i, p := range cores {
		per[i] = p.result()
	}
	// Start from core 0: its shared-structure counters and accuracy are
	// the machine's. Then sum the private counters over the other cores.
	r := per[0]
	r.PerCore = per
	var latSum float64
	for i, c := range per {
		latSum += c.AvgMemLatency * float64(c.MemAccesses)
		r.Cycles = max(r.Cycles, c.Cycles)
		if i == 0 {
			continue
		}
		r.Instructions += c.Instructions
		r.MemAccesses += c.MemAccesses
		r.Walks += c.Walks
		r.ShadowFills += c.ShadowFills
		r.PTAccesses += c.PTAccesses
		r.WalkCycles += c.WalkCycles
		r.WalkQueueCycles += c.WalkQueueCycles
		r.L1DLookups += c.L1DLookups
		r.L1DMisses += c.L1DMisses
		r.L2Lookups += c.L2Lookups
		r.L2Misses += c.L2Misses
		r.ITLBLookups += c.ITLBLookups
		r.ITLBMisses += c.ITLBMisses
		r.DTLBLookups += c.DTLBLookups
		r.DTLBMisses += c.DTLBMisses
		for l := range r.PWCHits {
			r.PWCHits[l] += c.PWCHits[l]
		}
		r.FullWalks += c.FullWalks
	}
	r.IPC, r.LLTMPKI, r.LLCMPKI, r.AvgMemLatency = 0, 0, 0, 0
	if r.MemAccesses > 0 {
		r.AvgMemLatency = latSum / float64(r.MemAccesses)
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / r.Cycles
	}
	if r.Instructions > 0 {
		ki := float64(r.Instructions) / 1000
		r.LLTMPKI = float64(r.Walks) / ki
		r.LLCMPKI = float64(r.LLCMisses) / ki
	}
	return r
}
