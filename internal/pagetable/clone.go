package pagetable

import "repro/internal/pool"

// Clone deep-copies the allocator: both copies hand out the same future
// frame sequence independently.
func (a *Allocator) Clone() *Allocator {
	c := *a
	return &c
}

// Clone deep-copies the page table — both slabs, the allocator and the
// interior-path memo — for warm-state forking. The memo names its leaf by
// slot, and slots are the same in the copy, so the clone's fast path stays
// primed.
func (pt *PageTable) Clone() *PageTable {
	return pt.CloneWith(pt.alloc.Clone())
}

// CloneWith is Clone with the allocator injected instead of copied. Tables
// sharing one frame allocator (per-tenant address spaces over a single
// physical memory) are forked by cloning the allocator once and handing
// the same clone to every table's CloneWith, preserving the sharing in the
// forked set. The copy's slabs, of the source's capacities, come from
// pt's pool, and it owns them: a fork never reads storage its source may
// release.
func (pt *PageTable) CloneWith(alloc *Allocator) *PageTable {
	if pt.inner == nil {
		panic("pagetable: clone of a released table")
	}
	n := *pt
	n.alloc = alloc
	n.inner = pool.Clone(pt.pool, pt.inner[:cap(pt.inner)])[:len(pt.inner)]
	n.leaves = pool.Clone(pt.pool, pt.leaves[:cap(pt.leaves)])[:len(pt.leaves)]
	return &n
}
