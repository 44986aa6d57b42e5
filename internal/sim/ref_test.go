package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/trace"
)

// This file holds the reference model the batched access loop is checked
// against: a naive stepper that simulates one access at a time with no
// memo, no deferred hits and no hoisted checks, and a multi-core driver
// that round-robins it one access per core. Production code never calls
// them; runBatch must leave the machine bit-identical to them.

// refStep feeds one trace record through the machine.
func (p *proc) refStep(a trace.Access) error {
	if a.Gap > 0 {
		p.core.Advance(uint64(a.Gap))
	}
	p.stepNow = uint64(p.core.Cycles())
	p.accesses++

	// Instruction-side translation: the fetch of the memory instruction
	// itself. L1 I-TLB hits are free; misses go through the shared LLT.
	iLat, _, err := p.translate(arch.VAddr(a.PC).Page(), a.PC, true)
	if err != nil {
		return err
	}

	// Data-side translation.
	dLat, pfn, err := p.translate(a.Addr.Page(), a.PC, false)
	if err != nil {
		return err
	}

	// Data access through the cache hierarchy.
	pa := arch.Translate(pfn, a.Addr)
	memLat := p.memAccess(pa, a.PC)

	lat := uint64(iLat) + uint64(dLat) + uint64(memLat)
	if p.inst != nil {
		p.inst.accessDone(lat)
	}
	p.core.Memory(lat, a.Dependent)
	if p.inst != nil {
		p.inst.tick(p)
	}
	return nil
}

// refRun feeds n accesses from g through a one-tenant machine.
func refRun(s *System, g trace.Generator, n uint64) error {
	return refMultiRun(s, []trace.Generator{g}, n)
}

// refMultiRun drives n accesses through the machine one access at a time,
// with RunTenants' error messages: the next active core in round-robin
// order takes one record from its running tenant's generator and steps it
// through refStep; then the tenant's unmap ring, counters, unmap injection
// and quantum advance.
func refMultiRun(m *System, gens []trace.Generator, n uint64) error {
	for i := uint64(0); i < n; i++ {
		c := m.active[m.rr]
		m.rr = (m.rr + 1) % len(m.active)
		ti := m.coreTenants[c][m.curTenant[c]]
		t := m.tenants[ti]
		a := gens[ti].Next()
		if err := m.cores[c].refStep(a); err != nil {
			if len(gens) == 1 {
				return fmt.Errorf("sim: access %d: %w", i, err)
			}
			return fmt.Errorf("sim: access %d: sim: core %d tenant %d: %w", i, c, ti, err)
		}
		m.counts.steps++
		t.accesses++
		if m.cfg.UnmapEvery > 0 {
			t.touch(arch.VPN(a.Addr.Page()) | arch.VPN(t.asidKey))
			if t.accesses%m.cfg.UnmapEvery == 0 {
				m.injectUnmap(t)
			}
		}
		if m.cfg.Quantum > 0 && len(m.coreTenants[c]) > 1 {
			m.sliceLeft[c]--
			if m.sliceLeft[c] == 0 {
				m.contextSwitch(c)
				m.sliceLeft[c] = m.cfg.Quantum
			}
		}
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
