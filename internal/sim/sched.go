package sim

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/pagetable"
	"repro/internal/pool"
	"repro/internal/trace"
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

// MultiConfig describes the machine: N cores with private L1 TLBs, L1D/L2
// caches and timing cores over a shared LLT and a shared inclusive LLC,
// running M tenant address spaces over one physical memory. New builds the
// plain case, one core and one tenant.
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
	// Pool, when set, supplies the arrays of every cache, TLB and page
	// table of the machine and of its forks, and takes them back when the machine is
	// released (System.Release); nil allocates them.
	Pool *pool.Pool
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
	asidKey uint64 // tenant index << arch.VPNBits; OR-ed into every VPN while running
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

// contextSwitch rotates core c to its next pinned tenant: the ASID key and
// page-table binding swap; every hardware structure keeps its contents.
// TLB entries, predictor state and page-walk-cache entries are all keyed by
// ASID-qualified VPNs, so nothing needs flushing — the incoming tenant
// simply cannot hit the outgoing tenant's entries.
func (s *System) contextSwitch(c int) {
	s.curTenant[c] = (s.curTenant[c] + 1) % len(s.coreTenants[c])
	s.bind(c)
	s.counts.switches++
}

// bind points core c's address-space state at its running tenant.
func (s *System) bind(c int) {
	t := s.tenants[s.runningTenant(c)]
	p := s.cores[c]
	p.asidKey = t.asidKey
	p.pt = t.pt
	p.walk.Rebind(t.pt)
}

// injectUnmap unmaps the oldest recently-touched page of tenant t and
// broadcasts the TLB shootdown. The freed frame is never reallocated, so
// stale data-cache blocks are unreachable and need no invalidation; a
// later touch of the page faults in a fresh frame through a full walk.
func (s *System) injectUnmap(t *tenantState) {
	vpn, ok := t.popOldest()
	if !ok || !t.pt.Unmap(vpn) {
		return
	}
	t.unmaps++
	s.counts.unmaps++
	s.shootdown(t)
}

// shootdown invalidates stale TLB entries after an unmap by tenant t.
// Flushes are hardware invalidations, not replacement decisions: no
// predictor, sampler or mirror observes them, so a flush-heavy tenant
// floods the shared structures with dead entries the predictors never see
// die — the stress case the multi-tenant sweep measures.
func (s *System) shootdown(t *tenantState) {
	s.counts.shootdowns++
	flushed := 0
	switch s.cfg.Shootdown {
	case ShootdownFullFlush:
		for _, p := range s.cores {
			flushed += p.itlb.FlushAll()
			flushed += p.dtlb.FlushAll()
		}
		flushed += s.llt.FlushAll()
	default: // ShootdownFlushASID
		asid := t.asidKey >> arch.VPNBits
		p := s.cores[t.core] // tenants are pinned: no other core holds their entries
		flushed += p.itlb.FlushASID(asid)
		flushed += p.dtlb.FlushASID(asid)
		flushed += s.llt.FlushASID(asid)
	}
	s.counts.shootdownFlushed += uint64(flushed)
}

// Run feeds n accesses from the generator through a one-tenant machine. A
// generator that latches an error mid-stream (trace.ErrGenerator) fails
// the run rather than feeding the simulator its repeated final access.
func (s *System) Run(g trace.Generator, n uint64) error {
	return s.RunContext(context.Background(), g, n)
}

// RunBuffer is Run over a chunk source.
func (s *System) RunBuffer(src trace.ChunkReader, n uint64) error {
	return s.Run(src, n)
}

// RunContext is Run with cancellation; see RunTenants.
func (s *System) RunContext(ctx context.Context, g trace.Generator, n uint64) error {
	return s.RunTenants(ctx, []trace.Generator{g}, n)
}

// ctxCheckStride is the longest chunk a run draws from a generator and the
// granularity of its context checks. It is a power of two so stride
// arithmetic compiles to masks, and coarse enough to be invisible next to
// the per-access simulation work.
const ctxCheckStride = 4096

// RunTenants feeds n total accesses through the machine (round-robin
// across cores), one generator per tenant, checking ctx every
// ctxCheckStride accesses and stopping with ctx's error when it is
// canceled. Each tenant keeps a cursor into a chunk drawn from its
// generator, bounded by tenantQuota so every generator ends exactly at its
// share of the n accesses. The round-robin schedule hands out segments:
// while several cores interleave a segment is one access, and when a
// single core is active it runs until its quantum ends, its tenant's next
// unmap falls due, the chunk or the run ends, or a stride boundary comes.
// Either way the machine sees the accesses in schedule order.
func (s *System) RunTenants(ctx context.Context, gens []trace.Generator, n uint64) error {
	if len(gens) != len(s.tenants) {
		return fmt.Errorf("sim: %d generators for %d tenants", len(gens), len(s.tenants))
	}
	s.tenantQuota(n)
	for ti, g := range gens {
		tc := &s.cur[ti]
		tc.src = newChunkSource(g, &tc.scratch)
		tc.c, tc.off, tc.left = trace.Chunk{}, 0, s.quota[ti]
	}
	var bm batchMemo
	solo := len(s.active) == 1
	done := ctx.Done()
	for i := uint64(0); i < n; {
		if done != nil && i&(ctxCheckStride-1) == 0 {
			select {
			case <-done:
				return fmt.Errorf("sim: canceled at access %d of %d: %w", i, n, ctx.Err())
			default:
			}
		}
		c := s.active[s.rr]
		s.rr = (s.rr + 1) % len(s.active)
		ti := s.coreTenants[c][s.curTenant[c]]
		tc := &s.cur[ti]
		if tc.off == len(tc.c.PC) {
			tc.c, tc.off = tc.src.next(int(min(tc.left, ctxCheckStride))), 0
			tc.left -= uint64(len(tc.c.PC))
		}
		k := 1
		if solo {
			k = s.segmentLen(c, ti, len(tc.c.PC)-tc.off, min(n-i, ctxCheckStride-i&(ctxCheckStride-1)))
		}
		if err := s.runSegment(&bm, i, c, ti, &tc.c, tc.off, tc.off+k); err != nil {
			return err
		}
		tc.off += k
		i += uint64(k)
	}
	for ti, g := range gens {
		if err := trace.GeneratorErr(g); err != nil {
			if len(gens) == 1 {
				return fmt.Errorf("sim: after %d accesses: %w", n, err)
			}
			return fmt.Errorf("sim: tenant %d after %d total accesses: %w", ti, n, err)
		}
	}
	return nil
}

// segmentLen bounds the segment core c runs for tenant ti when it is the
// only active core: no further than the avail records left in the chunk
// or the limit the run sets, the end of the tenant's quantum, or its next
// unmap point — scheduling events happen only between segments.
func (s *System) segmentLen(c, ti, avail int, limit uint64) int {
	k := min(uint64(avail), limit)
	if s.cfg.Quantum > 0 && len(s.coreTenants[c]) > 1 {
		k = min(k, s.sliceLeft[c])
	}
	if u := s.cfg.UnmapEvery; u > 0 {
		k = min(k, u-s.tenants[ti].accesses%u)
	}
	return int(k)
}

// runSegment feeds one segment of tenant ti's records through core c with
// the batch memo reset, then applies what the accesses did to the schedule:
// the unmap ring sees every data page, the counters advance, a due unmap
// and its shootdown run, and an expired quantum switches the tenant. i is
// the run's access count at the segment start, for error messages.
func (s *System) runSegment(bm *batchMemo, i uint64, c, ti int, ch *trace.Chunk, lo, hi int) error {
	t := s.tenants[ti]
	p := s.cores[c]
	bm.reset(p)
	if at, err := p.runBatch(bm, ch, lo, hi); err != nil {
		if len(s.tenants) == 1 {
			return fmt.Errorf("sim: access %d: %w", i+uint64(at), err)
		}
		return fmt.Errorf("sim: access %d: sim: core %d tenant %d: %w", i+uint64(at), c, ti, err)
	}
	k := uint64(hi - lo)
	if s.cfg.UnmapEvery > 0 {
		for _, v := range ch.VA[lo:hi] {
			t.touch(arch.VAddr(v).Page() | arch.VPN(t.asidKey))
		}
	}
	s.counts.steps += k
	t.accesses += k
	if s.cfg.UnmapEvery > 0 && t.accesses%s.cfg.UnmapEvery == 0 {
		s.injectUnmap(t)
	}
	if s.cfg.Quantum > 0 && len(s.coreTenants[c]) > 1 {
		s.sliceLeft[c] -= k
		if s.sliceLeft[c] == 0 {
			s.contextSwitch(c)
			s.sliceLeft[c] = s.cfg.Quantum
		}
	}
	return nil
}

// tenantQuota computes into s.quota, and returns, how many accesses each
// tenant will consume over the next n machine steps. The schedule is a pure function
// of the current scheduling state (round-robin cursor, per-core tenant
// rotation, quantum remainders) and nothing an access does feeds back into
// it, so RunTenants can replay it cheaply in advance and bound each
// tenant's generator draw to exactly its consumption: every generator ends
// at the position a one-record-at-a-time drive would leave it at, which
// the checkpoint splice protocol depends on.
func (s *System) tenantQuota(n uint64) []uint64 {
	quota := s.quota
	clear(quota)
	if len(s.tenants) <= len(s.cores) {
		// One tenant per core: pure round-robin over the active cores,
		// in closed form.
		k := uint64(len(s.active))
		for off, c := range s.active {
			ci := (uint64(off) - uint64(s.rr) + k) % k
			share := n / k
			if ci < n%k {
				share++
			}
			quota[s.coreTenants[c][0]] = share
		}
		return quota
	}
	cur := s.quotaTen
	slice := s.quotaSlice
	copy(cur, s.curTenant)
	copy(slice, s.sliceLeft)
	rr := s.rr
	for i := uint64(0); i < n; i++ {
		c := s.active[rr]
		rr = (rr + 1) % len(s.active)
		ti := s.coreTenants[c][cur[c]]
		quota[ti]++
		if s.cfg.Quantum > 0 && len(s.coreTenants[c]) > 1 {
			slice[c]--
			if slice[c] == 0 {
				cur[c] = (cur[c] + 1) % len(s.coreTenants[c])
				slice[c] = s.cfg.Quantum
			}
		}
	}
	return quota
}
