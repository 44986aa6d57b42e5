package sim

import (
	"fmt"

	"repro/internal/pagetable"
	"repro/internal/pred"
)

// Fork deep-copies the machine into an independent System that continues
// from the identical warm state: the shared LLT, LLC and predictors are
// cloned once, the frame allocator once, every tenant's page table over
// the cloned allocator (preserving the sharing), and every core's private
// structures. Scheduling state (round-robin cursor, running tenants,
// quantum remainders) is carried over. Forking a warmed machine and
// stepping the fork produces bit-identical results to stepping a freshly
// built machine through the same prefix: every structure implements a
// semantics-preserving Clone, and the fork shares no mutable state with
// the original (so both sides can be stepped concurrently).
//
// Fork refuses machines that cannot be duplicated faithfully: attached
// observers and metrics and enabled instrumentation hold references into
// the original (fork first, then instrument the fork), and the oracle
// predictors are tied to their two-pass record/replay protocol.
func (s *System) Fork() (*System, error) {
	switch attached, published := s.instrumented(); {
	case published:
		return nil, fmt.Errorf("sim: cannot fork with an observer or metrics attached; fork first, then attach to the fork")
	case attached:
		return nil, fmt.Errorf("sim: cannot fork with instrumentation enabled; fork first, then instrument the fork")
	}
	ct, ok := s.tlbPred.(pred.ClonableTLB)
	if !ok {
		return nil, fmt.Errorf("sim: TLB predictor %q is not forkable", s.tlbPred.Name())
	}
	cl, ok := s.llcPred.(pred.ClonableLLC)
	if !ok {
		return nil, fmt.Errorf("sim: LLC predictor %q is not forkable", s.llcPred.Name())
	}
	var pref *pred.DistancePrefetcher
	if tp := s.cores[0].tlbPref; tp != nil {
		dp, ok := tp.(*pred.DistancePrefetcher)
		if !ok {
			return nil, fmt.Errorf("sim: TLB prefetcher %q is not forkable", tp.Name())
		}
		pref = dp
	}

	n := &System{
		cfg:         s.cfg,
		rr:          s.rr,
		counts:      s.counts,
		base:        s.base,
		coreTenants: s.coreTenants, // fixed at construction, never written
		active:      s.active,      // likewise
		curTenant:   append([]int(nil), s.curTenant...),
		sliceLeft:   append([]uint64(nil), s.sliceLeft...),
	}
	var err error
	if n.llt, err = s.llt.Clone(); err != nil {
		return nil, err
	}
	if n.llc, err = s.llc.Clone(); err != nil {
		return nil, err
	}
	if n.tlbPred, err = ct.CloneTLB(n.llt.Inner()); err != nil {
		return nil, err
	}
	if n.llcPred, err = cl.CloneLLC(n.llc); err != nil {
		return nil, err
	}

	// One allocator clone serves every tenant's cloned table, preserving
	// the shared physical memory.
	n.alloc = s.alloc.Clone()
	n.tenants = make([]*tenantState, len(s.tenants))
	for i, t := range s.tenants {
		nt := *t
		nt.pt = t.pt.CloneWith(n.alloc)
		n.tenants[i] = &nt
	}

	n.cores = make([]*proc, len(s.cores))
	for c, p := range s.cores {
		np, err := p.fork(n.tenants[n.runningTenant(c)].pt)
		if err != nil {
			return nil, err
		}
		np.llt, np.llc = n.llt, n.llc
		np.setPredictors(n.tlbPred, n.llcPred)
		n.cores[c] = np
	}
	if pref != nil {
		n.cores[0].tlbPref = pref.Clone()
	}
	n.wireBackInvalidation()
	n.allocRunScratch()
	return n, nil
}

// fork copies a core's private state — its counters, L1 TLBs, L1D, L2,
// timing core, and a walker bound to pt — into a new proc. The shared
// levels (LLT, LLC) and the predictors are left for the caller; a forked
// machine has no instruments.
func (p *proc) fork(pt *pagetable.PageTable) (*proc, error) {
	n := &proc{
		cfg:             p.cfg,
		prefFills:       p.prefFills,
		prefUseful:      p.prefUseful,
		accesses:        p.accesses,
		walks:           p.walks,
		shadowFills:     p.shadowFills,
		walkerBusyUntil: p.walkerBusyUntil,
		walkQueueCycles: p.walkQueueCycles,
		stepNow:         p.stepNow,
		asidKey:         p.asidKey,
		base:            p.base,
		pt:              pt,
	}
	var err error
	if n.itlb, err = p.itlb.Clone(); err != nil {
		return nil, err
	}
	if n.dtlb, err = p.dtlb.Clone(); err != nil {
		return nil, err
	}
	if n.l1d, err = p.l1d.Clone(); err != nil {
		return nil, err
	}
	if n.l2, err = p.l2.Clone(); err != nil {
		return nil, err
	}
	if n.walk, err = p.walk.Clone(pt, n.ptFetch); err != nil {
		return nil, err
	}
	n.core = p.core.Clone()
	return n, nil
}
