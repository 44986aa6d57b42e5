package pagetable

import (
	"repro/internal/arch"
	"repro/internal/ckpt"
)

// EncodeState serializes the page table — allocator state, population
// counters and the full radix tree — for warm-state checkpointing. Each
// node lists its present entries in ascending index order, so the byte
// stream is deterministic for identical logical state. The interior-path
// memo is not stored: it is a pure lookup shortcut that repopulates on the
// first post-restore walk.
func (pt *PageTable) EncodeState(w *ckpt.Writer) {
	w.Mark("pagetable")
	w.U64(uint64(pt.alloc.policy))
	w.U64(pt.alloc.next)
	w.U64(pt.alloc.seed)
	w.U64(pt.alloc.limit)
	w.U64(pt.mappedPages)
	w.U64(pt.tableNodes)
	encodeNode(w, pt.root)
}

func encodeNode(w *ckpt.Writer, n *node) {
	w.U64(uint64(n.frame))
	w.Bool(n.children != nil)
	if n.children != nil {
		count := 0
		for _, ch := range n.children {
			if ch != nil {
				count++
			}
		}
		w.U64(uint64(count))
		for i, ch := range n.children {
			if ch != nil {
				w.U64(uint64(i))
				encodeNode(w, ch)
			}
		}
	}
	w.Bool(n.leaves != nil)
	if n.leaves != nil {
		count := 0
		for i := uint64(0); i < fanout; i++ {
			if n.leaves.has(i) {
				count++
			}
		}
		w.U64(uint64(count))
		for i := uint64(0); i < fanout; i++ {
			if n.leaves.has(i) {
				w.U64(i)
				w.U64(uint64(n.leaves.pfn[i]))
			}
		}
	}
}

// DecodeState restores state written by EncodeState, replacing the table's
// current contents. The allocator limit is verified against the configured
// one (a physical-memory mismatch would remap every frame).
func (pt *PageTable) DecodeState(r *ckpt.Reader) error {
	r.Expect("pagetable")
	policy := AllocPolicy(r.U64())
	next := r.U64()
	seed := r.U64()
	limit := r.U64()
	if r.Err() == nil && limit != pt.alloc.limit {
		r.Failf("pagetable: checkpoint physical memory (%d frames) does not match configured (%d)",
			limit, pt.alloc.limit)
	}
	mapped := r.U64()
	nodes := r.U64()
	root := decodeNode(r, 0)
	if r.Err() != nil {
		return r.Err()
	}
	pt.alloc.policy = policy
	pt.alloc.next = next
	pt.alloc.seed = seed
	pt.mappedPages = mapped
	pt.tableNodes = nodes
	pt.root = root
	pt.memoValid = false
	pt.memoLeaf = nil
	return nil
}

// decodeNode reads one node written by encodeNode. Counts and indices are
// bounded by the 512-entry node, and the node's shape must match its depth
// (children above the PT level, leaves at it), which every encoded tree
// satisfies.
func decodeNode(r *ckpt.Reader, depth int) *node {
	if depth >= arch.RadixLevels {
		r.Failf("pagetable: checkpoint radix tree deeper than %d levels", arch.RadixLevels)
		return nil
	}
	n := &node{frame: arch.PFN(r.U64())}
	if r.Bool() {
		count := r.U64()
		if count > fanout {
			r.Failf("pagetable: checkpoint node fanout %d exceeds %d", count, fanout)
			return nil
		}
		n.children = new([fanout]*node)
		for i := uint64(0); i < count && r.Err() == nil; i++ {
			k := r.U64()
			if k >= fanout {
				r.Failf("pagetable: checkpoint child index %d exceeds %d", k, fanout-1)
				return nil
			}
			n.children[k] = decodeNode(r, depth+1)
		}
	}
	if r.Bool() {
		count := r.U64()
		if count > fanout {
			r.Failf("pagetable: checkpoint leaf fanout %d exceeds %d", count, fanout)
			return nil
		}
		n.leaves = new(leafTable)
		for i := uint64(0); i < count && r.Err() == nil; i++ {
			k := r.U64()
			if k >= fanout {
				r.Failf("pagetable: checkpoint leaf index %d exceeds %d", k, fanout-1)
				return nil
			}
			n.leaves.set(k, arch.PFN(r.U64()))
		}
	}
	interior := depth < arch.RadixLevels-1
	if r.Err() == nil && ((n.children != nil) != interior || (n.leaves != nil) == interior) {
		r.Failf("pagetable: checkpoint node at level %d has the wrong shape", depth)
		return nil
	}
	return n
}
