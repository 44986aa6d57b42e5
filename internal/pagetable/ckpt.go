package pagetable

import (
	"math/bits"

	"repro/internal/arch"
	"repro/internal/ckpt"
	"repro/internal/pool"
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
	w.U64(pt.TableNodes())
	pt.encodeNode(w, 0, 0)
}

// encodeNode writes the node in slot k of depth's slab: its frame, then
// its children (interior) or its translations (PT level), each list
// preceded by a presence flag and a count.
func (pt *PageTable) encodeNode(w *ckpt.Writer, depth int, k uint32) {
	if depth < arch.RadixLevels-1 {
		n := &pt.inner[k]
		w.U64(uint64(n.frame))
		w.Bool(true)
		count := 0
		for _, ch := range n.child {
			if ch != 0 {
				count++
			}
		}
		w.U64(uint64(count))
		for i, ch := range n.child {
			if ch != 0 {
				w.U64(uint64(i))
				pt.encodeNode(w, depth+1, ch-1)
			}
		}
		w.Bool(false)
		return
	}
	n := &pt.leaves[k]
	w.U64(uint64(n.frame))
	w.Bool(false)
	w.Bool(true)
	count := 0
	for _, word := range n.present {
		count += bits.OnesCount64(word)
	}
	w.U64(uint64(count))
	for i := uint64(0); i < fanout; i++ {
		if n.has(i) {
			w.U64(i)
			w.U64(uint64(n.pfn[i]))
		}
	}
}

// DecodeState restores state written by EncodeState, replacing the table's
// current contents; the old slabs go back to the table's pool. The
// allocator limit is verified against the configured one (a
// physical-memory mismatch would remap every frame), and the node count
// against the tree.
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
	d := &PageTable{
		pool:   pt.pool,
		inner:  pool.Make[innerNode](pt.pool, innerStart)[:0],
		leaves: pool.Make[leafNode](pt.pool, leafStart)[:0],
	}
	if r.Err() == nil {
		d.decodeNode(r, 0)
	}
	if r.Err() == nil && nodes != d.TableNodes() {
		r.Failf("pagetable: checkpoint counts %d radix nodes but holds %d", nodes, d.TableNodes())
	}
	if r.Err() != nil {
		d.Release()
		return r.Err()
	}
	pt.Release()
	pt.alloc.policy = policy
	pt.alloc.next = next
	pt.alloc.seed = seed
	pt.mappedPages = mapped
	pt.inner, pt.leaves = d.inner, d.leaves
	pt.memoValid = false
	return nil
}

// decodeNode reads one node written by encodeNode into a new slot of its
// depth's slab and returns the slot plus one. Counts and indices are
// bounded by the 512-entry node, and the node's shape must match its depth
// (children above the PT level, translations at it), which every encoded
// tree satisfies.
func (pt *PageTable) decodeNode(r *ckpt.Reader, depth int) uint32 {
	if depth >= arch.RadixLevels {
		r.Failf("pagetable: checkpoint radix tree deeper than %d levels", arch.RadixLevels)
		return 0
	}
	frame := arch.PFN(r.U64())
	interior := depth < arch.RadixLevels-1
	var k uint32
	if interior {
		k = pt.newInner(frame)
	} else {
		k = pt.newLeaf(frame)
	}
	hasChildren := r.Bool()
	if hasChildren {
		count := r.U64()
		if count > fanout {
			r.Failf("pagetable: checkpoint node fanout %d exceeds %d", count, fanout)
			return 0
		}
		for i := uint64(0); i < count && r.Err() == nil; i++ {
			idx := r.U64()
			if idx >= fanout {
				r.Failf("pagetable: checkpoint child index %d exceeds %d", idx, fanout-1)
				return 0
			}
			if child := pt.decodeNode(r, depth+1); interior {
				pt.inner[k].child[idx] = child
			}
		}
	}
	hasLeaves := r.Bool()
	if hasLeaves {
		count := r.U64()
		if count > fanout {
			r.Failf("pagetable: checkpoint leaf fanout %d exceeds %d", count, fanout)
			return 0
		}
		for i := uint64(0); i < count && r.Err() == nil; i++ {
			idx := r.U64()
			if idx >= fanout {
				r.Failf("pagetable: checkpoint leaf index %d exceeds %d", idx, fanout-1)
				return 0
			}
			if pfn := arch.PFN(r.U64()); !interior {
				pt.leaves[k].set(idx, pfn)
			}
		}
	}
	if r.Err() == nil && (hasChildren != interior || hasLeaves == interior) {
		r.Failf("pagetable: checkpoint node at level %d has the wrong shape", depth)
		return 0
	}
	return k + 1
}
