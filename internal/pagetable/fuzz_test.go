package pagetable

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/ckpt"
	"repro/internal/pool"
)

// refTable is the fuzz target's model of one page table: its mappings,
// the frame of every radix node by depth and VPN prefix, and a clone of
// the table's allocator that hands out the frames the table should get.
type refTable struct {
	alloc  *Allocator
	mapped map[arch.VPN]arch.PFN
	nodes  map[[2]uint64]arch.PFN // {depth, vpn >> bits below the node}
}

// nodeKey names the depth-d node on vpn's path (depth 0 is the root).
func nodeKey(vpn arch.VPN, d int) [2]uint64 {
	return [2]uint64{uint64(d), uint64(vpn) >> (arch.RadixIndexBits * (arch.RadixLevels - d))}
}

func (m *refTable) clone(alloc *Allocator) *refTable {
	c := &refTable{alloc: alloc, mapped: make(map[arch.VPN]arch.PFN), nodes: make(map[[2]uint64]arch.PFN)}
	for k, v := range m.mapped {
		c.mapped[k] = v
	}
	for k, v := range m.nodes {
		c.nodes[k] = v
	}
	return c
}

// translate is Translate on the model: the expected frame, steps and
// whether the allocator ran out.
func (m *refTable) translate(vpn arch.VPN) (arch.PFN, []Step, bool) {
	var steps []Step
	for d := 0; d < arch.RadixLevels; d++ {
		if d > 0 {
			if _, ok := m.nodes[nodeKey(vpn, d)]; !ok {
				f, err := m.alloc.Alloc()
				if err != nil {
					return 0, steps, false
				}
				m.nodes[nodeKey(vpn, d)] = f
			}
		}
		steps = append(steps, Step{Level: d,
			PTEAddr: m.nodes[nodeKey(vpn, d)].Addr() + arch.PAddr(vpn.RadixIndex(d)*arch.PTESize)})
	}
	pfn, ok := m.mapped[vpn]
	if !ok {
		f, err := m.alloc.Alloc()
		if err != nil {
			return 0, steps, false
		}
		pfn = f
		m.mapped[vpn] = f
	}
	return pfn, steps, true
}

// fuzzVPN spreads a byte over four radix indices of 0, 1, 2 or 511, so
// walks share and diverge at every level.
func fuzzVPN(b byte) arch.VPN {
	var vpn arch.VPN
	for l := 0; l < arch.RadixLevels; l++ {
		idx := uint64(b>>(2*l)) & 3
		if idx == 3 {
			idx = fanout - 1
		}
		vpn = vpn<<arch.RadixIndexBits | arch.VPN(idx)
	}
	return vpn
}

// FuzzPageTableVsReference drives up to four page tables — a table, its
// clones and their decoded copies, all over one pool — through random
// translations, unmaps, lookups, clones, checkpoint round trips and
// releases, checking every answer against the model.
func FuzzPageTableVsReference(f *testing.F) {
	// Translate, clone, diverge, unmap, look up, clone with an injected
	// allocator, round-trip a clone, release one.
	f.Add([]byte{0, 0x00, 0x00, 0x00, 0x1b, 0x04, 0x00, 0x08, 0xe4, 0x02, 0x00, 0x03, 0x00,
		0x0b, 0x00, 0x03, 0xe4, 0x05, 0x55, 0x16, 0x1b, 0x10, 0xff, 0x0b, 0xff, 0x0f, 0x00,
		0x00, 0xff, 0x03, 0xff})
	// A 24-frame memory runs out while a table and its clone grow.
	f.Add([]byte{1, 0x00, 0x00, 0x04, 0x00, 0x00, 0xff, 0x08, 0xaa, 0x00, 0x55, 0x08, 0x0f,
		0x00, 0xf0, 0x08, 0x3c, 0x00, 0xc3, 0x0b, 0xc3, 0x03, 0xaa, 0x06, 0x00, 0x00, 0x01})
	// Sequential frames: many leaves under one path, unmapped and refilled.
	f.Add([]byte{2, 0x00, 0x00, 0x00, 0x40, 0x00, 0x80, 0x00, 0xc0, 0x02, 0x40, 0x04, 0x00,
		0x08, 0x40, 0x0a, 0x80, 0x03, 0x40, 0x0b, 0x80, 0x0e, 0x00, 0x0b, 0x40, 0x07, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		frames := uint64(1 << 20)
		if data[0]&1 != 0 {
			frames = 24 // small enough to run out
		}
		policy := AllocPolicy(data[0] >> 1 & 1)
		p := pool.New(2)
		newAlloc := func(seed uint64) *Allocator {
			a, err := NewAllocator(frames, policy, seed)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		a := newAlloc(1)
		model := &refTable{alloc: a.Clone(), mapped: make(map[arch.VPN]arch.PFN),
			nodes: make(map[[2]uint64]arch.PFN)}
		model.nodes[nodeKey(0, 0)], _ = model.alloc.Alloc()
		pt, err := NewPooled(a, p)
		if err != nil {
			t.Fatal(err)
		}
		tables, models := []*PageTable{pt}, []*refTable{model}

		for i := 1; i+1 < len(data); i += 2 {
			op, vpn := data[i], fuzzVPN(data[i+1])
			k := int(op>>3) % len(tables)
			pt, m := tables[k], models[k]
			switch op % 8 {
			case 0, 1: // Translate
				want, wantSteps, ok := m.translate(vpn)
				got, steps, err := pt.Translate(vpn, nil)
				if (err == nil) != ok {
					t.Fatalf("op %d: Translate(%#x) err %v, model ok %v", i, vpn, err, ok)
				}
				if ok && got != want {
					t.Fatalf("op %d: Translate(%#x) = %d, want %d", i, vpn, got, want)
				}
				if ok && !equalSteps(steps, wantSteps) {
					t.Fatalf("op %d: Translate(%#x) steps %v, want %v", i, vpn, steps, wantSteps)
				}
			case 2: // Unmap
				_, had := m.mapped[vpn]
				delete(m.mapped, vpn)
				if got := pt.Unmap(vpn); got != had {
					t.Fatalf("op %d: Unmap(%#x) = %v, want %v", i, vpn, got, had)
				}
			case 3: // TranslateIfMapped and nodeFrame
				want, had := m.mapped[vpn]
				if got, ok := pt.TranslateIfMapped(vpn); ok != had || got != want {
					t.Fatalf("op %d: TranslateIfMapped(%#x) = %d,%v, want %d,%v", i, vpn, got, ok, want, had)
				}
				for levels := 0; levels <= arch.RadixLevels; levels++ {
					want, had := m.nodes[nodeKey(vpn, levels)]
					if got, ok := nodeFrame(pt, vpn, levels); ok != had || got != want {
						t.Fatalf("op %d: nodeFrame(%#x, %d) = %d,%v, want %d,%v", i, vpn, levels, got, ok, want, had)
					}
				}
			case 4, 5: // Clone, or CloneWith a fresh allocator
				if len(tables) == 4 {
					continue
				}
				var c *PageTable
				var cm *refTable
				if op%8 == 4 {
					c, cm = pt.Clone(), m.clone(m.alloc.Clone())
				} else {
					na := newAlloc(uint64(op) + 2)
					c, cm = pt.CloneWith(na), m.clone(na.Clone())
				}
				tables, models = append(tables, c), append(models, cm)
			case 6: // checkpoint round trip; the decoded copy replaces pt
				raw := encodePT(t, pt)
				back, err := NewPooled(newAlloc(9), p)
				if err != nil {
					t.Fatal(err)
				}
				if err := back.DecodeState(ckpt.NewReader(bytes.NewReader(raw))); err != nil {
					t.Fatalf("op %d: decode: %v", i, err)
				}
				if again := encodePT(t, back); !bytes.Equal(again, raw) {
					t.Fatalf("op %d: decoded table re-encodes differently", i)
				}
				pt.Release()
				tables[k] = back
				pt = back
			case 7: // Release: the table panics on use and leaves the set
				if len(tables) == 1 {
					continue
				}
				pt.Release()
				if !panics(func() { pt.Translate(vpn, nil) }) || !panics(func() { pt.TranslateIfMapped(vpn) }) ||
					!panics(func() { pt.Clone() }) {
					t.Fatalf("op %d: a released table answered", i)
				}
				tables, models = append(tables[:k], tables[k+1:]...), append(models[:k], models[k+1:]...)
				continue
			}
			if pt.mappedPages != uint64(len(m.mapped)) || pt.TableNodes() != uint64(len(m.nodes)) {
				t.Fatalf("op %d: %d pages, %d nodes; model %d, %d", i,
					pt.mappedPages, pt.TableNodes(), len(m.mapped), len(m.nodes))
			}
		}
	})
}

func equalSteps(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// encodePT returns pt's checkpoint bytes.
func encodePT(t *testing.T, pt *PageTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	pt.EncodeState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
