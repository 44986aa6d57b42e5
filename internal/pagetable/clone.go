package pagetable

// Clone deep-copies the allocator: both copies hand out the same future
// frame sequence independently.
func (a *Allocator) Clone() *Allocator {
	c := *a
	return &c
}

// Clone deep-copies the page table — the full radix tree, the allocator and
// the interior-path memo — for warm-state forking. Leaf tables are copied
// as arrays; the memoized leaf pointer is remapped to the corresponding
// node of the cloned tree during the same traversal, so the clone's fast
// path stays primed without aliasing the original's nodes.
func (pt *PageTable) Clone() *PageTable {
	return pt.CloneWith(pt.alloc.Clone())
}

// CloneWith is Clone with the allocator injected instead of copied. Tables
// sharing one frame allocator (per-tenant address spaces over a single
// physical memory) are forked by cloning the allocator once and handing
// the same clone to every table's CloneWith, preserving the sharing in the
// forked set.
func (pt *PageTable) CloneWith(alloc *Allocator) *PageTable {
	n := &PageTable{
		alloc:       alloc,
		memoKey:     pt.memoKey,
		memoValid:   pt.memoValid,
		memoSteps:   pt.memoSteps,
		mappedPages: pt.mappedPages,
		tableNodes:  pt.tableNodes,
	}
	n.root = cloneNode(pt.root, pt.memoLeaf, &n.memoLeaf)
	if n.memoLeaf == nil {
		// The memoized path was not found (memo never set); drop the memo
		// rather than alias the original tree. Results are unaffected —
		// the memo is a pure lookup shortcut.
		n.memoValid = false
	}
	return n
}

// cloneNode recursively copies a radix node. When it copies the node that
// memoLeaf points at, it records the copy in memoOut.
func cloneNode(src, memoLeaf *node, memoOut **node) *node {
	if src == nil {
		return nil
	}
	dst := &node{frame: src.frame}
	if src.children != nil {
		dst.children = new([fanout]*node)
		for i, ch := range src.children {
			dst.children[i] = cloneNode(ch, memoLeaf, memoOut)
		}
	}
	if src.leaves != nil {
		leaves := *src.leaves
		dst.leaves = &leaves
	}
	if src == memoLeaf {
		*memoOut = dst
	}
	return dst
}
