package pagetable

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func newPT(t *testing.T, frames uint64, pol AllocPolicy) *PageTable {
	t.Helper()
	a, err := NewAllocator(frames, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// nodeFrame returns the frame of the radix node reached after consuming
// `levels` levels of the walk for vpn (0 returns the root's frame). It
// reports ok=false when the path does not exist yet.
func nodeFrame(pt *PageTable, vpn arch.VPN, levels int) (arch.PFN, bool) {
	if levels >= arch.RadixLevels { // past the PT level
		return 0, false
	}
	k := uint32(0)
	for l := 0; l < levels; l++ {
		child := pt.inner[k].child[vpn.RadixIndex(l)]
		if child == 0 {
			return 0, false
		}
		k = child - 1
	}
	if levels == arch.RadixLevels-1 {
		return pt.leaves[k].frame, true
	}
	return pt.inner[k].frame, true
}

func TestAllocatorSequential(t *testing.T) {
	a, err := NewAllocator(4, AllocSequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		f, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(f) != i {
			t.Errorf("frame %d = %d", i, f)
		}
	}
	if _, err := a.Alloc(); err == nil {
		t.Error("allocation beyond limit succeeded")
	}
}

func TestAllocatorScrambledIsPermutation(t *testing.T) {
	const frames = 1000
	a, err := NewAllocator(frames, AllocScrambled, 42)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[arch.PFN]bool, frames)
	for i := 0; i < frames; i++ {
		f, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(f) >= frames {
			t.Fatalf("frame %d out of range", f)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	if len(seen) != frames {
		t.Fatalf("allocated %d distinct frames, want %d", len(seen), frames)
	}
}

func TestAllocatorScrambledDeterministic(t *testing.T) {
	mk := func() []arch.PFN {
		a, _ := NewAllocator(64, AllocScrambled, 7)
		out := make([]arch.PFN, 64)
		for i := range out {
			out[i], _ = a.Alloc()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("allocation %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestAllocatorRejectsZeroFrames(t *testing.T) {
	if _, err := NewAllocator(0, AllocSequential, 0); err == nil {
		t.Error("zero-frame allocator accepted")
	}
}

func TestTranslateFirstTouchAllocates(t *testing.T) {
	pt := newPT(t, 1<<20, AllocSequential)
	vpn := arch.VPN(0x12345)
	pfn, steps, err := pt.Translate(vpn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != arch.RadixLevels {
		t.Fatalf("walk has %d steps, want %d", len(steps), arch.RadixLevels)
	}
	// Re-translation is stable and allocates nothing new.
	before := pt.mappedPages
	pfn2, _, err := pt.Translate(vpn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pfn2 != pfn {
		t.Errorf("unstable translation: %d then %d", pfn, pfn2)
	}
	if pt.mappedPages != before {
		t.Error("re-translation allocated a page")
	}
}

func TestTranslateDistinctVPNsDistinctPFNs(t *testing.T) {
	pt := newPT(t, 1<<20, AllocScrambled)
	seen := make(map[arch.PFN]arch.VPN)
	for i := 0; i < 5000; i++ {
		vpn := arch.VPN(i * 7919) // spread across the radix tree
		pfn, _, err := pt.Translate(vpn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[pfn]; dup {
			t.Fatalf("PFN %d assigned to both VPN %d and %d", pfn, prev, vpn)
		}
		seen[pfn] = vpn
	}
}

func TestWalkStepsAreInTableFrames(t *testing.T) {
	pt := newPT(t, 1<<20, AllocSequential)
	vpn := arch.VPN(0x00F0_1234_5)
	_, steps, err := pt.Translate(vpn, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		frame, ok := nodeFrame(pt, vpn, s.Level)
		if !ok {
			t.Fatalf("node for level %d missing after translate", s.Level)
		}
		if s.PTEAddr.Page() != frame {
			t.Errorf("level %d PTE at frame %d, node frame is %d",
				s.Level, s.PTEAddr.Page(), frame)
		}
		wantOff := vpn.RadixIndex(s.Level) * arch.PTESize
		if uint64(s.PTEAddr)&arch.PageOffsetMask != wantOff {
			t.Errorf("level %d PTE offset %#x, want %#x",
				s.Level, uint64(s.PTEAddr)&arch.PageOffsetMask, wantOff)
		}
	}
}

func TestNodeFrameMissingPath(t *testing.T) {
	pt := newPT(t, 1024, AllocSequential)
	if _, ok := nodeFrame(pt, arch.VPN(0xABC_DEF_12), 3); ok {
		t.Error("nodeFrame reported a path that was never created")
	}
	if f, ok := nodeFrame(pt, arch.VPN(0), 0); !ok || f != 0 {
		t.Errorf("root frame = %d,%v; want 0,true (sequential alloc)", f, ok)
	}
}

func TestSharedInteriorNodes(t *testing.T) {
	pt := newPT(t, 1<<20, AllocSequential)
	// Two VPNs differing only in the last radix index share 3 nodes.
	base := arch.VPN(0x123456000 >> arch.PageShift)
	_, _, err := pt.Translate(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodesBefore := pt.TableNodes()
	_, _, err = pt.Translate(base+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt.TableNodes() != nodesBefore {
		t.Errorf("adjacent page allocated %d new nodes, want 0",
			pt.TableNodes()-nodesBefore)
	}
}

func TestTranslateOutOfMemory(t *testing.T) {
	pt := newPT(t, 5, AllocSequential) // root + 3 interior + 1 leaf page
	if _, _, err := pt.Translate(0, nil); err != nil {
		t.Fatalf("first translation should fit: %v", err)
	}
	// A VPN in a different PML4 subtree needs 4 new frames: must fail.
	if _, _, err := pt.Translate(arch.VPN(1)<<27, nil); err == nil {
		t.Error("expected out-of-memory error")
	}
}

// Property: translation is a function (stable) and injective over any set
// of VPNs.
func TestTranslateInjectiveProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		pt := newPT(t, 1<<22, AllocScrambled)
		got := make(map[arch.VPN]arch.PFN)
		rev := make(map[arch.PFN]arch.VPN)
		for _, r := range raw {
			vpn := arch.VPN(r)
			pfn, _, err := pt.Translate(vpn, nil)
			if err != nil {
				return false
			}
			if prev, ok := got[vpn]; ok && prev != pfn {
				return false
			}
			got[vpn] = pfn
			if prevVPN, ok := rev[pfn]; ok && prevVPN != vpn {
				return false
			}
			rev[pfn] = vpn
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the Feistel scramble is a bijection on [0, limit) for assorted
// limits.
func TestScrambleBijectionProperty(t *testing.T) {
	f := func(limRaw uint16, seed uint64) bool {
		limit := uint64(limRaw%2000) + 1
		a, err := NewAllocator(limit, AllocScrambled, seed)
		if err != nil {
			return false
		}
		seen := make(map[arch.PFN]bool, limit)
		for i := uint64(0); i < limit; i++ {
			f, err := a.Alloc()
			if err != nil || uint64(f) >= limit || seen[f] {
				return false
			}
			seen[f] = true
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTranslateIfMapped(t *testing.T) {
	pt := newPT(t, 1<<16, AllocSequential)
	if _, ok := pt.TranslateIfMapped(42); ok {
		t.Error("unmapped VPN reported mapped")
	}
	want, _, err := pt.Translate(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := pt.TranslateIfMapped(42)
	if !ok || got != want {
		t.Errorf("TranslateIfMapped = %d,%v; want %d,true", got, ok, want)
	}
	// A sibling VPN sharing interior nodes but no leaf stays unmapped.
	if _, ok := pt.TranslateIfMapped(43); ok {
		t.Error("sibling VPN reported mapped")
	}
	if before := pt.mappedPages; before != 1 {
		t.Errorf("mapped pages = %d, want 1 (lookup must not allocate)", before)
	}
}
