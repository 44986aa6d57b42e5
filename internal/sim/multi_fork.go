package sim

import (
	"fmt"

	"repro/internal/pred"
)

// Fork deep-copies the whole multi-core machine into an independent
// MultiSystem continuing from the identical warm state: the shared LLT,
// LLC and predictors are cloned once, the frame allocator once, every
// tenant's page table over the cloned allocator (preserving the sharing),
// and every core's private structures. Scheduling state (round-robin
// cursor, running tenants, quantum remainders) is carried over, so
// stepping the fork is bit-identical to stepping the original.
func (m *MultiSystem) Fork() (*MultiSystem, error) {
	if m.lltAcc != nil || m.lltConf != nil {
		return nil, fmt.Errorf("sim: cannot fork with instrumentation enabled; fork first, then instrument the fork")
	}
	for i, s := range m.cores {
		if s.observer != nil {
			return nil, fmt.Errorf("sim: cannot fork with metrics attached to core %d", i)
		}
		if s.histMemLat != nil {
			return nil, fmt.Errorf("sim: cannot fork with metrics attached; fork first, then attach to the fork")
		}
	}
	ct, ok := m.tlbPred.(pred.ClonableTLB)
	if !ok {
		return nil, fmt.Errorf("sim: TLB predictor %q is not forkable", m.tlbPred.Name())
	}
	cl, ok := m.llcPred.(pred.ClonableLLC)
	if !ok {
		return nil, fmt.Errorf("sim: LLC predictor %q is not forkable", m.llcPred.Name())
	}

	n := &MultiSystem{
		cfg:              m.cfg,
		rr:               m.rr,
		steps:            m.steps,
		switches:         m.switches,
		shootdowns:       m.shootdowns,
		shootdownFlushed: m.shootdownFlushed,
		unmaps:           m.unmaps,
		base:             m.base,
	}
	n.coreTenants = make([][]int, len(m.coreTenants))
	for c, lst := range m.coreTenants {
		n.coreTenants[c] = append([]int(nil), lst...)
	}
	n.curTenant = append([]int(nil), m.curTenant...)
	n.sliceLeft = append([]uint64(nil), m.sliceLeft...)
	n.active = append([]int(nil), m.active...)

	var err error
	if n.llt, err = m.llt.Clone(); err != nil {
		return nil, err
	}
	if n.llc, err = m.llc.Clone(); err != nil {
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
	n.alloc = m.alloc.Clone()
	n.tenants = make([]*tenantState, len(m.tenants))
	for i, t := range m.tenants {
		nt := *t
		nt.pt = t.pt.CloneWith(n.alloc)
		n.tenants[i] = &nt
	}

	n.cores = make([]*System, len(m.cores))
	for c, s := range m.cores {
		if s.cpuCore == nil {
			return nil, fmt.Errorf("sim: cannot fork core %d with a substituted core model", c)
		}
		// The core's bound address space is whichever tenant is running
		// on it; idle cores were bound to tenant 0 at construction.
		pt := n.tenants[0].pt
		if lst := n.coreTenants[c]; len(lst) > 0 {
			pt = n.tenants[lst[n.curTenant[c]]].pt
		}
		ns, err := s.forkCore(pt)
		if err != nil {
			return nil, err
		}
		ns.llt = n.llt
		ns.llc = n.llc
		ns.tlbPred = n.tlbPred
		ns.llcPred = n.llcPred
		ns.cachePredIfaces()
		if len(n.cores) > 1 {
			ns.backInv = n.backInvalidate
		}
		n.cores[c] = ns
	}
	return n, nil
}
