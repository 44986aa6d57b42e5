// Package pagetable implements the four-level radix page table the paper
// adds to its simulator (§III): "we allocate a four-level radix tree data
// structure as the page table. The page table contents are cached on the
// processor caches as in the real hardware."
//
// The table maps 36-bit VPNs through four levels of 512-entry nodes
// (PML4 → PDPT → PD → PT). Every node occupies a physical frame obtained
// from the same frame allocator that backs application pages, so page-walk
// accesses compete for cache capacity with application data exactly as on
// real hardware. Translations are created on first touch (demand paging
// with a zero-cost soft page fault, matching the paper's methodology of
// simulating whole applications after their working sets are mapped).
package pagetable

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/pool"
)

// AllocPolicy selects how the frame allocator assigns physical frames.
type AllocPolicy int

const (
	// AllocScrambled assigns frames in a pseudo-random (but
	// deterministic) order, modelling a long-running OS whose free list
	// is fragmented. This is the default: it decorrelates virtual and
	// physical locality, which matters for LLC set indexing.
	AllocScrambled AllocPolicy = iota
	// AllocSequential assigns frames in ascending order, modelling a
	// freshly booted machine with perfect contiguity.
	AllocSequential
)

// Allocator hands out physical frames deterministically.
type Allocator struct {
	policy AllocPolicy
	next   uint64
	seed   uint64
	limit  uint64
}

// NewAllocator builds an allocator for a physical memory of the given
// number of frames. The seed perturbs the scrambled ordering.
func NewAllocator(frames uint64, policy AllocPolicy, seed uint64) (*Allocator, error) {
	if frames == 0 {
		return nil, fmt.Errorf("pagetable: allocator needs at least one frame")
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Allocator{policy: policy, seed: seed, limit: frames}, nil
}

// Alloc returns the next free frame. It fails only when physical memory is
// exhausted.
func (a *Allocator) Alloc() (arch.PFN, error) {
	if a.next >= a.limit {
		return 0, fmt.Errorf("pagetable: out of physical memory (%d frames)", a.limit)
	}
	n := a.next
	a.next++
	if a.policy == AllocSequential {
		return arch.PFN(n), nil
	}
	return arch.PFN(a.scramble(n)), nil
}

// scramble maps the counter through a bijection on [0, limit): a balanced
// Feistel network over the smallest even-width power-of-two domain covering
// limit, with cycle walking for out-of-range intermediate values (the
// standard format-preserving-permutation construction). Distinct counters
// therefore always receive distinct frames.
func (a *Allocator) scramble(n uint64) uint64 {
	bits := uint(2) // even, ≥ 2
	for uint64(1)<<bits < a.limit {
		bits += 2
	}
	v := n
	for {
		v = feistel(v, bits, a.seed)
		if v < a.limit {
			return v
		}
	}
}

// feistel is a 4-round balanced Feistel permutation on [0, 2^bits); bits
// must be even.
func feistel(v uint64, bits uint, seed uint64) uint64 {
	half := bits / 2
	hmask := uint64(1)<<half - 1
	l, r := v>>half, v&hmask
	for round := uint64(0); round < 4; round++ {
		l, r = r, l^(mix(r+seed+round)&hmask)
	}
	return l<<half | r
}

// mix is a 64-bit finalizer (splitmix64-style) used as the Feistel round
// function.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// fanout is the number of entries of one radix node.
const fanout = 1 << arch.RadixIndexBits

// The radix tree lives in two slabs, one per kind of node, linked by
// index: an interior node's entry holds its child's slot in the next
// level's slab plus one (0 = no child), and the root is interior slot 0.
// A slab grows by doubling from a small start, so a table of a few nodes
// stays a few nodes' worth. Both slabs come from the table's pool
// (NewPooled) and go back to it in Release; a clone copies each slab into
// one drawn from the same pool.

// innerNode is an interior (PML4, PDPT or PD) node: its frame, where its
// 512 PTEs live in simulated physical memory, and its children's slots.
type innerNode struct {
	frame arch.PFN
	child [fanout]uint32
}

// leafNode is a PT-level node: its frame and its translations, where
// pfn[i] is meaningful only where bit i of present is set (frame 0 is a
// valid translation).
type leafNode struct {
	frame   arch.PFN
	present [fanout / 64]uint64
	pfn     [fanout]arch.PFN
}

func (t *leafNode) has(i uint64) bool { return t.present[i/64]>>(i%64)&1 != 0 }

func (t *leafNode) set(i uint64, pfn arch.PFN) {
	t.present[i/64] |= 1 << (i % 64)
	t.pfn[i] = pfn
}

func (t *leafNode) clear(i uint64) { t.present[i/64] &^= 1 << (i % 64) }

// lookup returns the translation at index i, if present.
func (t *leafNode) lookup(i uint64) (arch.PFN, bool) {
	if !t.has(i) {
		return 0, false
	}
	return t.pfn[i], true
}

// Initial slab capacities: room for the first path's three interior
// nodes (rounded up to a power of two) and its leaf.
const (
	innerStart = 4
	leafStart  = 1
)

// PageTable is a four-level radix page table plus the frame allocator.
type PageTable struct {
	alloc *Allocator
	pool  *pool.Pool

	inner  []innerNode // interior nodes, the root first
	leaves []leafNode

	// Last-path memo: consecutive translations overwhelmingly share the
	// interior radix path (everything above the PT level), so Translate
	// caches the node frames and the leaf slot of the most recent walk.
	// Radix nodes are never freed or moved between slots, so the memo can
	// only go stale by pointing at a path that does not exist yet — and it
	// is only populated for paths that do.
	memoKey   uint64 // vpn >> RadixIndexBits of the memoized path
	memoValid bool
	memoSteps [arch.RadixLevels - 1]Step // interior steps (indices fixed by memoKey)
	memoLeaf  uint32                     // slot of the PT-level node

	mappedPages uint64
}

// New creates an empty page table backed by the allocator, its slabs
// allocated as it grows.
func New(alloc *Allocator) (*PageTable, error) { return NewPooled(alloc, nil) }

// NewPooled is New with the slabs drawn from p, and returned to it by
// Release.
func NewPooled(alloc *Allocator, p *pool.Pool) (*PageTable, error) {
	if alloc == nil {
		return nil, fmt.Errorf("pagetable: nil allocator")
	}
	rootFrame, err := alloc.Alloc()
	if err != nil {
		return nil, err
	}
	pt := &PageTable{
		alloc:  alloc,
		pool:   p,
		inner:  pool.Make[innerNode](p, innerStart)[:0],
		leaves: pool.Make[leafNode](p, leafStart)[:0],
	}
	pt.newInner(rootFrame)
	return pt, nil
}

// newInner adds an interior node with no children and returns its slot.
func (pt *PageTable) newInner(frame arch.PFN) uint32 {
	pt.inner = pool.Append(pt.pool, pt.inner, innerNode{frame: frame})
	return uint32(len(pt.inner) - 1)
}

// newLeaf adds a PT-level node with no translations and returns its slot.
func (pt *PageTable) newLeaf(frame arch.PFN) uint32 {
	pt.leaves = pool.Append(pt.pool, pt.leaves, leafNode{frame: frame})
	return uint32(len(pt.leaves) - 1)
}

// Release returns the table's slabs to its pool and leaves it without
// storage: any later translation, lookup, clone or encoding panics, so a
// stale reference can never read the table the slabs go to next. A
// released table stays released.
func (pt *PageTable) Release() {
	pool.Put(pt.pool, pt.inner)
	pool.Put(pt.pool, pt.leaves)
	pt.inner, pt.leaves = nil, nil
}

// Step is one page-table access of a walk: the level it reads (0 = PML4,
// 3 = PT) and the physical address of the PTE, which the walker sends
// through the data-cache hierarchy.
type Step struct {
	Level   int
	PTEAddr arch.PAddr
}

// Translate maps vpn to its frame, allocating the mapping (and any missing
// radix nodes) on first touch. steps receives the full four-level walk for
// this VPN — the walker truncates it according to its page-walk-cache hits.
// The steps slice is appended to dst to let callers reuse storage.
func (pt *PageTable) Translate(vpn arch.VPN, dst []Step) (arch.PFN, []Step, error) {
	// Fast path: the interior radix path matches the previous walk's, so
	// the memoized steps and leaf slot stand in for three node lookups.
	if pt.memoValid && uint64(vpn)>>arch.RadixIndexBits == pt.memoKey {
		dst = append(dst, pt.memoSteps[:]...)
		return pt.leafStep(pt.memoLeaf, vpn, dst)
	}

	k := uint32(0)
	for level := 0; level < arch.RadixLevels-1; level++ {
		idx := vpn.RadixIndex(level)
		n := &pt.inner[k]
		dst = append(dst, Step{
			Level:   level,
			PTEAddr: n.frame.Addr() + arch.PAddr(idx*arch.PTESize),
		})
		child := n.child[idx]
		if child == 0 {
			frame, err := pt.alloc.Alloc()
			if err != nil {
				return 0, dst, err
			}
			if level == arch.RadixLevels-2 {
				child = pt.newLeaf(frame) + 1
			} else {
				child = pt.newInner(frame) + 1
			}
			pt.inner[k].child[idx] = child // n may have moved with its slab
		}
		k = child - 1
	}
	// Memoize the now-complete interior path (nodes are never freed, so
	// the memo cannot dangle).
	pt.memoKey = uint64(vpn) >> arch.RadixIndexBits
	copy(pt.memoSteps[:], dst[len(dst)-(arch.RadixLevels-1):])
	pt.memoLeaf = k
	pt.memoValid = true
	return pt.leafStep(k, vpn, dst)
}

// leafStep emits the PT-level step for vpn against the leaf in slot k and
// resolves (allocating on first touch) the final translation.
func (pt *PageTable) leafStep(k uint32, vpn arch.VPN, dst []Step) (arch.PFN, []Step, error) {
	n := &pt.leaves[k]
	idx := vpn.RadixIndex(arch.RadixLevels - 1)
	dst = append(dst, Step{
		Level:   arch.RadixLevels - 1,
		PTEAddr: n.frame.Addr() + arch.PAddr(idx*arch.PTESize),
	})
	pfn, ok := n.lookup(idx)
	if !ok {
		var err error
		pfn, err = pt.alloc.Alloc()
		if err != nil {
			return 0, dst, err
		}
		n.set(idx, pfn)
		pt.mappedPages++
	}
	return pfn, dst, nil
}

// Unmap removes the leaf translation for vpn, reporting whether a mapping
// existed. Interior radix nodes stay allocated (as on real hardware, where
// freeing page-table pages is a separate, rare operation), so the
// interior-path memo remains valid; the freed frame is not returned to the
// allocator — a later touch of the same page faults in a fresh frame,
// which is what makes post-shootdown reuse visible to the TLB hierarchy.
func (pt *PageTable) Unmap(vpn arch.VPN) bool {
	n := pt.leafNode(vpn)
	idx := vpn.RadixIndex(arch.RadixLevels - 1)
	if n == nil || !n.has(idx) {
		return false
	}
	n.clear(idx)
	pt.mappedPages--
	return true
}

// leafNode returns the PT-level node on vpn's path, or nil when the path
// does not exist yet.
func (pt *PageTable) leafNode(vpn arch.VPN) *leafNode {
	k := uint32(0)
	for level := 0; level < arch.RadixLevels-1; level++ {
		child := pt.inner[k].child[vpn.RadixIndex(level)]
		if child == 0 {
			return nil
		}
		k = child - 1
	}
	return &pt.leaves[k]
}

// TranslateIfMapped returns the frame for vpn only if a mapping already
// exists; it never allocates. TLB prefetchers use it so that speculative
// translations do not fault in new pages.
func (pt *PageTable) TranslateIfMapped(vpn arch.VPN) (arch.PFN, bool) {
	n := pt.leafNode(vpn)
	if n == nil {
		return 0, false
	}
	return n.lookup(vpn.RadixIndex(arch.RadixLevels - 1))
}

// TableNodes returns how many radix nodes (including the root) exist.
func (pt *PageTable) TableNodes() uint64 { return uint64(len(pt.inner) + len(pt.leaves)) }
