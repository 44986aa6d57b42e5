package sim

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/pred"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/walker"
)

// ShootdownPolicy selects how a TLB shootdown after an unmap invalidates
// stale translations.
type ShootdownPolicy int

const (
	// ShootdownFlushASID flushes only the unmapping tenant's entries —
	// the precise invalidation an ASID-tagged TLB offers. Private L1
	// TLBs are flushed on the tenant's own core only (tenants are pinned,
	// so no other core can hold their entries); the shared LLT is flushed
	// by ASID.
	ShootdownFlushASID ShootdownPolicy = iota
	// ShootdownFullFlush drops every entry of every TLB on every core —
	// the ASID-oblivious sledgehammer older kernels broadcast. Other
	// tenants lose their warm translations and re-walk, which is exactly
	// the cross-tenant interference the policy comparison measures.
	ShootdownFullFlush
)

// String names the policy for reports and flags.
func (p ShootdownPolicy) String() string {
	switch p {
	case ShootdownFlushASID:
		return "asid"
	case ShootdownFullFlush:
		return "full"
	}
	return fmt.Sprintf("ShootdownPolicy(%d)", int(p))
}

// ParseShootdown maps a flag value to a policy.
func ParseShootdown(s string) (ShootdownPolicy, error) {
	switch s {
	case "asid":
		return ShootdownFlushASID, nil
	case "full":
		return ShootdownFullFlush, nil
	}
	return 0, fmt.Errorf("sim: unknown shootdown policy %q (want asid or full)", s)
}

// MultiConfig describes a multi-core, multi-tenant machine: N cores with
// private L1 TLBs, L1D/L2 caches and timing cores over a shared LLT and a
// shared inclusive LLC, running M tenant address spaces over one physical
// memory.
type MultiConfig struct {
	// Machine configures each core's private structures and the shared
	// LLT/LLC geometry (one Config describes the whole machine; the
	// shared levels are built once from its LLT and LLC sections).
	Machine Config
	// Cores is the core count.
	Cores int
	// Tenants is the tenant (address space) count. Tenant t is pinned to
	// core t mod Cores.
	Tenants int
	// Quantum is the number of accesses a tenant runs before its core
	// context-switches to the next tenant sharing it. 0 never switches.
	// Cores whose tenant runs alone never switch regardless.
	Quantum uint64
	// Shootdown selects the TLB invalidation broadcast after an unmap.
	Shootdown ShootdownPolicy
	// UnmapEvery injects one page unmap (plus shootdown) per tenant every
	// UnmapEvery of that tenant's accesses. 0 disables unmapping.
	UnmapEvery uint64
}

// maxTenants bounds the ASID space: tenant IDs must fit the key bits above
// the 36-bit VPN with slack to spare; 1<<16 is far beyond any sweep.
const maxTenants = 1 << 16

func (mc MultiConfig) validate() error {
	if mc.Cores < 1 {
		return fmt.Errorf("sim: multi config needs at least one core (got %d)", mc.Cores)
	}
	if mc.Tenants < 1 {
		return fmt.Errorf("sim: multi config needs at least one tenant (got %d)", mc.Tenants)
	}
	if mc.Tenants > maxTenants {
		return fmt.Errorf("sim: %d tenants exceed the ASID space (%d)", mc.Tenants, maxTenants)
	}
	if mc.Shootdown != ShootdownFlushASID && mc.Shootdown != ShootdownFullFlush {
		return fmt.Errorf("sim: unknown shootdown policy %d", int(mc.Shootdown))
	}
	return mc.Machine.validate()
}

// unmapRingSize is how many recently-touched pages per tenant are
// candidates for unmap injection. Oldest-first unmapping from a small ring
// keeps a realistic mix: some unmapped pages are genuinely cold, some are
// about to be re-touched (the premature-kill pressure the sweep measures).
const unmapRingSize = 64

// tenantState is one address space: its page table over the shared frame
// allocator, its ASID tag, and the unmap-injection bookkeeping.
type tenantState struct {
	id      uint64
	asidKey uint64 // id << arch.VPNBits; OR-ed into every VPN while running
	core    int    // the core this tenant is pinned to
	pt      *pagetable.PageTable

	accesses uint64 // accesses this tenant has executed
	unmaps   uint64 // successful unmap injections

	// Ring of recently-touched (ASID-qualified) data pages, oldest first.
	recent [unmapRingSize]arch.VPN
	head   int
	count  int
}

// touch records a data page as recently used; adjacent duplicates are
// skipped so a streaming phase doesn't fill the ring with one page.
func (t *tenantState) touch(vpn arch.VPN) {
	if t.count > 0 && t.recent[(t.head+t.count-1)%unmapRingSize] == vpn {
		return
	}
	if t.count == unmapRingSize {
		t.recent[t.head] = vpn
		t.head = (t.head + 1) % unmapRingSize
		return
	}
	t.recent[(t.head+t.count)%unmapRingSize] = vpn
	t.count++
}

// popOldest removes and returns the oldest recently-touched page.
func (t *tenantState) popOldest() (arch.VPN, bool) {
	if t.count == 0 {
		return 0, false
	}
	vpn := t.recent[t.head]
	t.head = (t.head + 1) % unmapRingSize
	t.count--
	return vpn, true
}

// MultiSystem is N cores over a shared LLT and shared inclusive LLC,
// time-multiplexing M tenant address spaces. Scheduling is a deterministic
// round-robin: cores advance one access at a time in core order, and each
// core rotates through its pinned tenants on a fixed access quantum, so a
// run is a pure function of (MultiConfig, generators).
//
// With one core and one tenant every moving part degenerates to the
// single-System machine: the ASID key is zero (VPN keys unchanged), no
// context switch or shootdown ever fires, and the shared LLT/LLC are the
// core's own — results are bit-identical to a standalone System.
type MultiSystem struct {
	cfg MultiConfig

	cores   []*System
	tenants []*tenantState

	alloc *pagetable.Allocator
	llt   *tlb.TLB
	llc   *cache.Cache

	tlbPred pred.TLBPredictor
	llcPred pred.LLCPredictor

	// Scheduling state.
	coreTenants [][]int  // tenant indices pinned to each core
	curTenant   []int    // index into coreTenants[c] of the running tenant
	sliceLeft   []uint64 // accesses left in the running tenant's quantum
	active      []int    // cores with at least one tenant, in core order
	rr          int      // next entry of active to step

	// Counters.
	steps            uint64
	switches         uint64
	shootdowns       uint64
	shootdownFlushed uint64
	unmaps           uint64

	// Shared instrumentation (nil unless enabled). The trackers mirror
	// the shared LLT/LLC, so one instance serves every core; they are
	// assigned into each core System's hook fields and flushed exactly
	// once by Finish.
	lltAcc, llcAcc   *stats.AccuracyTracker
	lltConf, llcConf *stats.ConfusionTracker

	base multiBase
}

// multiBase is the measurement baseline for the multi-level counters.
type multiBase struct {
	steps, switches, shootdowns, shootdownFlushed, unmaps uint64
}

// NewMulti builds the multi-core machine.
func NewMulti(mc MultiConfig) (*MultiSystem, error) {
	if err := mc.validate(); err != nil {
		return nil, err
	}
	cfg := mc.Machine
	m := &MultiSystem{cfg: mc, tlbPred: pred.NullTLB{}, llcPred: pred.NullLLC{}}

	var err error
	if m.llt, err = tlb.New(cfg.LLT); err != nil {
		return nil, err
	}
	if m.llc, err = cache.New(cache.Config{
		Name: cfg.LLC.Name, Sets: cfg.LLC.sets(), Ways: cfg.LLC.Ways, Policy: cfg.LLC.Policy,
	}); err != nil {
		return nil, err
	}
	if m.alloc, err = pagetable.NewAllocator(cfg.PhysMemMB<<20/arch.PageSize, cfg.Alloc, cfg.Seed); err != nil {
		return nil, err
	}

	// Tenants draw page-table frames from the one shared allocator in
	// tenant order; tenant 0's root is the allocator's first frame,
	// exactly as in a standalone System.
	m.tenants = make([]*tenantState, mc.Tenants)
	m.coreTenants = make([][]int, mc.Cores)
	for t := range m.tenants {
		pt, err := pagetable.New(m.alloc)
		if err != nil {
			return nil, err
		}
		c := t % mc.Cores
		m.tenants[t] = &tenantState{
			id:      uint64(t),
			asidKey: uint64(t) << arch.VPNBits,
			core:    c,
			pt:      pt,
		}
		m.coreTenants[c] = append(m.coreTenants[c], t)
	}

	m.cores = make([]*System, mc.Cores)
	m.curTenant = make([]int, mc.Cores)
	m.sliceLeft = make([]uint64, mc.Cores)
	for c := range m.cores {
		s := &System{cfg: cfg, tlbPred: pred.NullTLB{}, llcPred: pred.NullLLC{},
			sampleEvery: 50_000}
		if s.itlb, err = tlb.New(cfg.L1ITLB); err != nil {
			return nil, err
		}
		if s.dtlb, err = tlb.New(cfg.L1DTLB); err != nil {
			return nil, err
		}
		s.llt = m.llt
		s.llc = m.llc
		// An idle core (no pinned tenant) still needs a bound address
		// space for its walker seam; it never steps, so tenant 0's is as
		// good as any.
		first := m.tenants[0]
		if len(m.coreTenants[c]) > 0 {
			first = m.tenants[m.coreTenants[c][0]]
		}
		s.pt = first.pt
		s.asidKey = first.asidKey
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
		core, err := cpu.New(cfg.Core)
		if err != nil {
			return nil, err
		}
		s.core = core
		s.cpuCore = core
		s.cachePredIfaces()
		if mc.Cores > 1 {
			// Inclusive-LLC back-invalidation must reach every core's
			// inner caches. The single-core default (invalidate own
			// L2/L1D) is left in place for Cores==1 so the machine stays
			// on the exact standalone code path.
			s.backInv = m.backInvalidate
		}
		m.cores[c] = s
		m.sliceLeft[c] = mc.Quantum
		if len(m.coreTenants[c]) > 0 {
			m.active = append(m.active, c)
		}
	}
	return m, nil
}

// backInvalidate drops a block evicted from the shared inclusive LLC from
// every core's inner caches.
func (m *MultiSystem) backInvalidate(key uint64) {
	for _, s := range m.cores {
		s.l2.Invalidate(key)
		s.l1d.Invalidate(key)
	}
}

// Cores returns the core count.
func (m *MultiSystem) Cores() int { return len(m.cores) }

// Tenants returns the tenant count.
func (m *MultiSystem) Tenants() int { return len(m.tenants) }

// Core exposes core i's System (tests and stats).
func (m *MultiSystem) Core(i int) *System { return m.cores[i] }

// LLT exposes the shared last-level TLB (predictor constructors need its
// backing structure).
func (m *MultiSystem) LLT() *tlb.TLB { return m.llt }

// LLC exposes the shared last-level cache.
func (m *MultiSystem) LLC() *cache.Cache { return m.llc }

// Config returns the machine configuration.
func (m *MultiSystem) Config() MultiConfig { return m.cfg }

// SetTLBPredictor installs one LLT predictor instance shared by every core
// (the LLT it guards is shared; nil restores the baseline).
func (m *MultiSystem) SetTLBPredictor(p pred.TLBPredictor) {
	if p == nil {
		p = pred.NullTLB{}
	}
	m.tlbPred = p
	for _, s := range m.cores {
		s.tlbPred = p
		s.cachePredIfaces()
	}
}

// SetLLCPredictor installs one LLC predictor instance shared by every core
// (nil restores the baseline).
func (m *MultiSystem) SetLLCPredictor(p pred.LLCPredictor) {
	if p == nil {
		p = pred.NullLLC{}
	}
	m.llcPred = p
	for _, s := range m.cores {
		s.llcPred = p
		s.cachePredIfaces()
	}
}

// contextSwitch rotates core c to its next pinned tenant: the ASID key and
// page-table binding swap; every hardware structure keeps its contents.
// TLB entries, predictor state and page-walk-cache entries are all keyed by
// ASID-qualified VPNs, so nothing needs flushing — the incoming tenant
// simply cannot hit the outgoing tenant's entries.
func (m *MultiSystem) contextSwitch(c int) {
	lst := m.coreTenants[c]
	m.curTenant[c] = (m.curTenant[c] + 1) % len(lst)
	t := m.tenants[lst[m.curTenant[c]]]
	s := m.cores[c]
	s.asidKey = t.asidKey
	s.pt = t.pt
	s.walk.Rebind(t.pt)
	m.switches++
}

// injectUnmap unmaps the oldest recently-touched page of tenant t and
// broadcasts the TLB shootdown. The freed frame is never reallocated, so
// stale data-cache blocks are unreachable and need no invalidation; a
// later touch of the page faults in a fresh frame through a full walk.
func (m *MultiSystem) injectUnmap(t *tenantState) {
	vpn, ok := t.popOldest()
	if !ok || !t.pt.Unmap(vpn) {
		return
	}
	t.unmaps++
	m.unmaps++
	m.shootdown(t)
}

// shootdown invalidates stale TLB entries after an unmap by tenant t.
// Flushes are hardware invalidations, not replacement decisions: no
// predictor, sampler or mirror observes them, so a flush-heavy tenant
// floods the shared structures with dead entries the predictors never see
// die — the stress case the multi-tenant sweep measures.
func (m *MultiSystem) shootdown(t *tenantState) {
	m.shootdowns++
	flushed := 0
	switch m.cfg.Shootdown {
	case ShootdownFullFlush:
		for _, s := range m.cores {
			flushed += s.itlb.FlushAll()
			flushed += s.dtlb.FlushAll()
		}
		flushed += m.llt.FlushAll()
	default: // ShootdownFlushASID
		asid := t.asidKey >> arch.VPNBits
		s := m.cores[t.core] // tenants are pinned: no other core holds their entries
		flushed += s.itlb.FlushASID(asid)
		flushed += s.dtlb.FlushASID(asid)
		flushed += m.llt.FlushASID(asid)
	}
	m.shootdownFlushed += uint64(flushed)
}

// Run feeds n total accesses through the machine (round-robin across
// cores), one generator per tenant. Each tenant needs its own generator:
// a tenant draws its records a chunk ahead of the schedule.
func (m *MultiSystem) Run(gens []trace.Generator, n uint64) error {
	return m.RunContext(context.Background(), gens, n)
}

// RunContext is Run with cancellation, checked every ctxCheckStride
// accesses. Each tenant keeps a cursor into a chunk drawn from its
// generator, bounded by tenantQuota so every generator ends exactly at its
// share of the n accesses. The round-robin schedule hands out segments:
// while several cores interleave a segment is one access, and when a
// single core is active it runs until its quantum ends, its tenant's next
// unmap falls due, the chunk or the run ends, or a stride boundary comes.
// Either way the machine sees the accesses in schedule order.
func (m *MultiSystem) RunContext(ctx context.Context, gens []trace.Generator, n uint64) error {
	if len(gens) != len(m.tenants) {
		return fmt.Errorf("sim: %d generators for %d tenants", len(gens), len(m.tenants))
	}
	type cursor struct {
		src     chunkSource
		scratch trace.Chunk
		c       trace.Chunk
		off     int
		left    uint64 // accesses still to draw from the generator
	}
	cur := make([]cursor, len(gens))
	for ti, q := range m.tenantQuota(n) {
		cur[ti].src = newChunkSource(gens[ti], &cur[ti].scratch)
		cur[ti].left = q
	}
	var bm batchMemo
	solo := len(m.active) == 1
	done := ctx.Done()
	for i := uint64(0); i < n; {
		if done != nil && i&(ctxCheckStride-1) == 0 {
			select {
			case <-done:
				return fmt.Errorf("sim: canceled at access %d of %d: %w", i, n, ctx.Err())
			default:
			}
		}
		c := m.active[m.rr]
		m.rr = (m.rr + 1) % len(m.active)
		ti := m.coreTenants[c][m.curTenant[c]]
		tc := &cur[ti]
		if tc.off == len(tc.c.PC) {
			tc.c, tc.off = tc.src.next(int(min(tc.left, ctxCheckStride))), 0
			tc.left -= uint64(len(tc.c.PC))
		}
		k := 1
		if solo {
			k = m.segmentLen(c, ti, len(tc.c.PC)-tc.off, min(n-i, ctxCheckStride-i&(ctxCheckStride-1)))
		}
		if err := m.runSegment(&bm, i, c, ti, &tc.c, tc.off, tc.off+k); err != nil {
			return err
		}
		tc.off += k
		i += uint64(k)
	}
	for ti, g := range gens {
		if err := trace.GeneratorErr(g); err != nil {
			return fmt.Errorf("sim: tenant %d after %d total accesses: %w", ti, n, err)
		}
	}
	return nil
}

// segmentLen bounds the segment core c runs for tenant ti when it is the
// only active core: no further than the avail records left in the chunk
// or the limit the run sets, the end of the tenant's quantum, or its next
// unmap point — scheduling events happen only between segments.
func (m *MultiSystem) segmentLen(c, ti, avail int, limit uint64) int {
	k := min(uint64(avail), limit)
	if m.cfg.Quantum > 0 && len(m.coreTenants[c]) > 1 {
		k = min(k, m.sliceLeft[c])
	}
	if u := m.cfg.UnmapEvery; u > 0 {
		k = min(k, u-m.tenants[ti].accesses%u)
	}
	return int(k)
}

// runSegment feeds one segment of tenant ti's records through core c with
// the batch memo reset, then applies what the accesses did to the schedule:
// the unmap ring sees every data page, the counters advance, a due unmap
// and its shootdown run, and an expired quantum switches the tenant. i is
// the run's access count at the segment start, for error messages.
func (m *MultiSystem) runSegment(bm *batchMemo, i uint64, c, ti int, ch *trace.Chunk, lo, hi int) error {
	t := m.tenants[ti]
	s := m.cores[c]
	bm.reset(s)
	if at, err := s.runBatch(bm, ch, lo, hi); err != nil {
		return fmt.Errorf("sim: access %d: sim: core %d tenant %d: %w", i+uint64(at), c, ti, err)
	}
	k := uint64(hi - lo)
	if m.cfg.UnmapEvery > 0 {
		for _, v := range ch.VA[lo:hi] {
			t.touch(arch.VAddr(v).Page() | arch.VPN(t.asidKey))
		}
	}
	m.steps += k
	t.accesses += k
	if m.cfg.UnmapEvery > 0 && t.accesses%m.cfg.UnmapEvery == 0 {
		m.injectUnmap(t)
	}
	if m.cfg.Quantum > 0 && len(m.coreTenants[c]) > 1 {
		m.sliceLeft[c] -= k
		if m.sliceLeft[c] == 0 {
			m.contextSwitch(c)
			m.sliceLeft[c] = m.cfg.Quantum
		}
	}
	return nil
}

// tenantQuota computes how many accesses each tenant will consume over
// the next n machine steps. The schedule is a pure function of the
// current scheduling state (round-robin cursor, per-core tenant rotation,
// quantum remainders) and nothing an access does feeds back into it, so
// RunContext can replay it cheaply in advance and bound each tenant's
// generator draw to exactly its consumption: every generator ends at the
// position a one-record-at-a-time drive would leave it at, which the
// checkpoint splice protocol depends on.
func (m *MultiSystem) tenantQuota(n uint64) []uint64 {
	quota := make([]uint64, len(m.tenants))
	multi := false
	for _, lst := range m.coreTenants {
		if len(lst) > 1 {
			multi = true
			break
		}
	}
	if !multi {
		// One tenant per core: pure round-robin over the active cores,
		// in closed form.
		k := uint64(len(m.active))
		for off, c := range m.active {
			ci := (uint64(off) - uint64(m.rr) + k) % k
			share := n / k
			if ci < n%k {
				share++
			}
			quota[m.coreTenants[c][0]] = share
		}
		return quota
	}
	cur := append([]int(nil), m.curTenant...)
	slice := append([]uint64(nil), m.sliceLeft...)
	rr := m.rr
	for i := uint64(0); i < n; i++ {
		c := m.active[rr]
		rr = (rr + 1) % len(m.active)
		ti := m.coreTenants[c][cur[c]]
		quota[ti]++
		if m.cfg.Quantum > 0 && len(m.coreTenants[c]) > 1 {
			slice[c]--
			if slice[c] == 0 {
				cur[c] = (cur[c] + 1) % len(m.coreTenants[c])
				slice[c] = m.cfg.Quantum
			}
		}
	}
	return quota
}

// EnableAccuracyTracking creates one pair of mirror accuracy trackers over
// the shared LLT and LLC and wires them into every core's fill/access
// hooks. One mirror per shared structure is the only correct shape:
// per-core mirrors would each see a fraction of the interleaved stream and
// diverge from the real shared contents.
func (m *MultiSystem) EnableAccuracyTracking() error {
	inner := m.llt.Inner()
	la, err := stats.NewAccuracyTracker("LLT", inner.Sets(), inner.Ways(), m.cfg.Machine.LLT.Policy)
	if err != nil {
		return err
	}
	ca, err := stats.NewAccuracyTracker("LLC", m.llc.Sets(), m.llc.Ways(), m.cfg.Machine.LLC.Policy)
	if err != nil {
		return err
	}
	m.lltAcc, m.llcAcc = la, ca
	for _, s := range m.cores {
		s.lltAcc, s.llcAcc = la, ca
	}
	return nil
}

// EnableConfusionTracking creates the shared ground-truth confusion
// trackers (true-dead / premature / missed grading) over the shared LLT
// and LLC, wired into every core like the accuracy mirrors.
func (m *MultiSystem) EnableConfusionTracking() error {
	inner := m.llt.Inner()
	lt, err := stats.NewConfusionTracker("llt", inner.Sets(), inner.Ways(), m.cfg.Machine.LLT.Policy)
	if err != nil {
		return err
	}
	ct, err := stats.NewConfusionTracker("llc", m.llc.Sets(), m.llc.Ways(), m.cfg.Machine.LLC.Policy)
	if err != nil {
		return err
	}
	m.lltConf, m.llcConf = lt, ct
	for _, s := range m.cores {
		s.lltConf, s.llcConf = lt, ct
	}
	return nil
}

// AttachMetrics publishes every core's structure counters under a
// "coreN." prefix plus the machine-level scheduling counters, and enables
// per-core latency/lifetime histograms. Registration is passive — results
// stay bit-identical with or without it.
func (m *MultiSystem) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i, s := range m.cores {
		sub := reg.Sub(fmt.Sprintf("core%d.", i))
		s.histMemLat = sub.Histogram("hist.mem_latency")
		s.histWalkDepth = sub.Histogram("hist.walk_depth")
		s.histWalkLat = sub.Histogram("hist.walk_latency")
		s.histLLTLife = sub.Histogram("hist.llt_lifetime")
		s.histLLCLife = sub.Histogram("hist.llc_lifetime")
		s.registerMetrics(sub)
	}
	reg.RegisterProbe("multi.steps", func() float64 { return float64(m.steps) })
	reg.RegisterProbe("multi.switches", func() float64 { return float64(m.switches) })
	reg.RegisterProbe("multi.shootdowns", func() float64 { return float64(m.shootdowns) })
	reg.RegisterProbe("multi.shootdown_flushed", func() float64 { return float64(m.shootdownFlushed) })
	reg.RegisterProbe("multi.unmaps", func() float64 { return float64(m.unmaps) })
	reg.RegisterProbe("multi.cores", func() float64 { return float64(len(m.cores)) })
	reg.RegisterProbe("multi.tenants", func() float64 { return float64(len(m.tenants)) })
}

// StartMeasurement marks the end of warmup on every core and for the
// machine-level counters.
func (m *MultiSystem) StartMeasurement() {
	for _, s := range m.cores {
		s.StartMeasurement()
	}
	m.base = multiBase{
		steps:            m.steps,
		switches:         m.switches,
		shootdowns:       m.shootdowns,
		shootdownFlushed: m.shootdownFlushed,
		unmaps:           m.unmaps,
	}
}

// Finish resolves end-of-run instrumentation. Call it on the MultiSystem,
// not on individual cores: the confusion trackers are shared, and flushing
// them once is what grades each still-resident entry exactly once.
func (m *MultiSystem) Finish() {
	if m.lltConf != nil {
		m.lltConf.Flush()
		m.llcConf.Flush()
	}
}

// MultiResult summarizes a measured region of the multi-core machine.
type MultiResult struct {
	// PerCore holds each core's Result. The shared-structure counters
	// (LLT/LLC lookups and misses) and the shared accuracy/confusion
	// tallies are machine-global, so they repeat identically in every
	// per-core entry; the private counters (IPC, L1/L2, walks) are the
	// core's own.
	PerCore []Result

	// Accesses is the total access count across cores; the scheduling
	// counters cover the same region.
	Accesses         uint64
	Switches         uint64
	Shootdowns       uint64
	ShootdownFlushed uint64
	Unmaps           uint64

	// Instructions sums the cores; Cycles is the slowest core's cycle
	// count (cores run in parallel); IPC is aggregate throughput
	// (summed instructions over the slowest core's cycles).
	Instructions uint64
	Cycles       float64
	IPC          float64

	// Walks sums demand page walks across cores; LLTMPKI and LLCMPKI are
	// per-kilo-instruction over the summed instruction count.
	Walks   uint64
	LLTMPKI float64
	LLCMPKI float64

	// Shared-structure instrumentation (zero when not enabled).
	LLTAccuracy  stats.AccuracyResult
	LLCAccuracy  stats.AccuracyResult
	LLTConfusion stats.Confusion
	LLCConfusion stats.Confusion
}

// Result computes the summary for everything since StartMeasurement.
func (m *MultiSystem) Result() MultiResult {
	r := MultiResult{
		Accesses:         m.steps - m.base.steps,
		Switches:         m.switches - m.base.switches,
		Shootdowns:       m.shootdowns - m.base.shootdowns,
		ShootdownFlushed: m.shootdownFlushed - m.base.shootdownFlushed,
		Unmaps:           m.unmaps - m.base.unmaps,
	}
	var llcMisses uint64
	for _, s := range m.cores {
		cr := s.Result()
		r.PerCore = append(r.PerCore, cr)
		r.Instructions += cr.Instructions
		r.Walks += cr.Walks
		if cr.Cycles > r.Cycles {
			r.Cycles = cr.Cycles
		}
	}
	// LLC misses are counted at the shared structure; every core's Result
	// reports the same machine-global delta, so take one, not the sum.
	if len(r.PerCore) > 0 {
		llcMisses = r.PerCore[0].LLCMisses
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / r.Cycles
	}
	if r.Instructions > 0 {
		ki := float64(r.Instructions) / 1000
		r.LLTMPKI = float64(r.Walks) / ki
		r.LLCMPKI = float64(llcMisses) / ki
	}
	if m.lltAcc != nil {
		r.LLTAccuracy = m.lltAcc.Result()
		r.LLCAccuracy = m.llcAcc.Result()
	}
	if m.lltConf != nil {
		r.LLTConfusion = m.lltConf.Counts()
		r.LLCConfusion = m.llcConf.Counts()
	}
	return r
}
