package sim

import (
	"fmt"

	"repro/internal/pagetable"
	"repro/internal/pred"
)

// Fork deep-copies the machine — TLBs, caches, page table, walker, core and
// predictors — into an independent System that continues from the identical
// warm state. Forking a warmed baseline and stepping the fork produces
// bit-identical results to stepping a freshly built system through the same
// prefix: every structure implements a semantics-preserving Clone, and the
// fork shares no mutable state with the original (so both sides can be
// stepped concurrently).
//
// Fork refuses systems that cannot be duplicated faithfully: attached
// observers and enabled instrumentation hold references into the original
// (fork first, then instrument the fork), a substituted test core model has
// no Clone seam, and the oracle predictors are tied to their two-pass
// record/replay protocol.
func (s *System) Fork() (*System, error) {
	if s.lltAcc != nil || s.lltSampler != nil || s.corr != nil {
		return nil, fmt.Errorf("sim: cannot fork with instrumentation enabled; fork first, then instrument the fork")
	}
	if s.observer != nil {
		return nil, fmt.Errorf("sim: cannot fork with an observer attached")
	}
	if s.cpuCore == nil {
		return nil, fmt.Errorf("sim: cannot fork a system with a substituted core model")
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
	if s.tlbPref != nil {
		dp, ok := s.tlbPref.(*pred.DistancePrefetcher)
		if !ok {
			return nil, fmt.Errorf("sim: TLB prefetcher %q is not forkable", s.tlbPref.Name())
		}
		pref = dp
	}

	n, err := s.forkCore(s.pt.Clone())
	if err != nil {
		return nil, err
	}
	n.prefFills, n.prefUseful = s.prefFills, s.prefUseful
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
	if pref != nil {
		n.tlbPref = pref.Clone()
	}
	n.cachePredIfaces()
	return n, nil
}

// forkCore copies a machine's core-private state — its counters, L1 TLBs,
// L1D, L2, timing core, and a walker bound to pt — into a new System.
// The shared levels (LLT, LLC), the predictors and the hooks are left for
// the caller, which has checked that s has a real timing core.
func (s *System) forkCore(pt *pagetable.PageTable) (*System, error) {
	n := &System{
		cfg:             s.cfg,
		sampleEvery:     s.sampleEvery,
		accesses:        s.accesses,
		walks:           s.walks,
		shadowFills:     s.shadowFills,
		walkerBusyUntil: s.walkerBusyUntil,
		walkQueueCycles: s.walkQueueCycles,
		stepNow:         s.stepNow,
		asidKey:         s.asidKey,
		base:            s.base,
		pt:              pt,
	}
	var err error
	if n.itlb, err = s.itlb.Clone(); err != nil {
		return nil, err
	}
	if n.dtlb, err = s.dtlb.Clone(); err != nil {
		return nil, err
	}
	if n.l1d, err = s.l1d.Clone(); err != nil {
		return nil, err
	}
	if n.l2, err = s.l2.Clone(); err != nil {
		return nil, err
	}
	if n.walk, err = s.walk.Clone(pt, n.ptFetch); err != nil {
		return nil, err
	}
	core := s.cpuCore.Clone()
	n.core = core
	n.cpuCore = core
	return n, nil
}
