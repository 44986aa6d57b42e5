package walker

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/pagetable"
)

func newWalker(t *testing.T, cfg Config, fetchLat arch.Lat) (*Walker, *[]arch.PAddr) {
	t.Helper()
	alloc, err := pagetable.NewAllocator(1<<20, pagetable.AllocSequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pagetable.New(alloc)
	if err != nil {
		t.Fatal(err)
	}
	var fetched []arch.PAddr
	w, err := New(pt, cfg, func(pa arch.PAddr) arch.Lat {
		fetched = append(fetched, pa)
		return fetchLat
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, &fetched
}

func TestNewValidation(t *testing.T) {
	alloc, _ := pagetable.NewAllocator(64, pagetable.AllocSequential, 0)
	pt, _ := pagetable.New(alloc)
	if _, err := New(nil, DefaultConfig(), func(arch.PAddr) arch.Lat { return 0 }); err == nil {
		t.Error("nil page table accepted")
	}
	if _, err := New(pt, DefaultConfig(), nil); err == nil {
		t.Error("nil fetch accepted")
	}
	bad := DefaultConfig()
	bad.PWCEntries[0] = -1
	if _, err := New(pt, bad, func(arch.PAddr) arch.Lat { return 0 }); err == nil {
		t.Error("negative PWC entries accepted")
	}
}

func TestFirstWalkIsFull(t *testing.T) {
	w, fetched := newWalker(t, DefaultConfig(), 10)
	res, err := w.Walk(arch.VPN(0x1234))
	if err != nil {
		t.Fatal(err)
	}
	if res.PTAccesses != arch.RadixLevels {
		t.Errorf("first walk fetched %d PTEs, want %d", res.PTAccesses, arch.RadixLevels)
	}
	// Latency = PWC3 miss path (2 cycles charged) + 4 fetches × 10.
	if want := arch.Lat(2 + 4*10); res.Latency != want {
		t.Errorf("latency = %d, want %d", res.Latency, want)
	}
	if len(*fetched) != 4 {
		t.Errorf("fetch callback saw %d accesses, want 4", len(*fetched))
	}
	if st := w.Stats(); st.FullWalks != 1 || st.Walks != 1 || st.PTAccesses != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSecondWalkHitsPDECache(t *testing.T) {
	w, _ := newWalker(t, DefaultConfig(), 10)
	if _, err := w.Walk(arch.VPN(0x1000)); err != nil {
		t.Fatal(err)
	}
	res, err := w.Walk(arch.VPN(0x1001)) // same 2 MB region
	if err != nil {
		t.Fatal(err)
	}
	if res.PTAccesses != 1 {
		t.Errorf("PDE-cached walk fetched %d PTEs, want 1", res.PTAccesses)
	}
	if want := arch.Lat(1 + 10); res.Latency != want {
		t.Errorf("latency = %d, want %d", res.Latency, want)
	}
	if st := w.Stats(); st.PWCHits[0] != 1 {
		t.Errorf("PWC1 hits = %d, want 1", st.PWCHits[0])
	}
}

func TestWalkHitsPDPTECacheAcross2MBRegions(t *testing.T) {
	w, _ := newWalker(t, DefaultConfig(), 10)
	if _, err := w.Walk(arch.VPN(0)); err != nil {
		t.Fatal(err)
	}
	// Flood PWC1 (4 entries) with other 2 MB regions inside the same
	// 1 GB region, then return to a new 2 MB region: PWC1 misses, PWC2
	// (PDPTE) hits → 2 fetches.
	for r := uint64(1); r <= 4; r++ {
		if _, err := w.Walk(arch.VPN(r << arch.RadixIndexBits)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Stats().PWCHits[1]
	res, err := w.Walk(arch.VPN(100 << arch.RadixIndexBits))
	if err != nil {
		t.Fatal(err)
	}
	if res.PTAccesses != 2 {
		t.Errorf("PDPTE-cached walk fetched %d PTEs, want 2", res.PTAccesses)
	}
	if after := w.Stats().PWCHits[1]; after != before+1 {
		t.Errorf("PWC2 hits went %d → %d, want +1", before, after)
	}
}

func TestDisabledPWCsAlwaysFullWalk(t *testing.T) {
	w, _ := newWalker(t, Config{}, 5)
	for i := 0; i < 3; i++ {
		res, err := w.Walk(arch.VPN(7))
		if err != nil {
			t.Fatal(err)
		}
		if res.PTAccesses != 4 {
			t.Fatalf("walk %d fetched %d PTEs, want 4", i, res.PTAccesses)
		}
		if res.Latency != 20 {
			t.Fatalf("walk %d latency %d, want 20", i, res.Latency)
		}
	}
	if st := w.Stats(); st.FullWalks != 3 {
		t.Errorf("FullWalks = %d, want 3", st.FullWalks)
	}
}

func TestWalkReturnsStableTranslation(t *testing.T) {
	w, _ := newWalker(t, DefaultConfig(), 1)
	a, err := w.Walk(arch.VPN(0x42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Walk(arch.VPN(0x42))
	if err != nil {
		t.Fatal(err)
	}
	if a.PFN != b.PFN {
		t.Errorf("translation changed: %d then %d", a.PFN, b.PFN)
	}
}

func TestPTEFetchAddressesAreDistinctPerLevel(t *testing.T) {
	w, fetched := newWalker(t, Config{}, 1)
	if _, err := w.Walk(arch.VPN(0x0123_4567_8)); err != nil {
		t.Fatal(err)
	}
	seen := map[arch.PAddr]bool{}
	for _, pa := range *fetched {
		if seen[pa] {
			t.Errorf("duplicate PTE fetch at %#x", pa)
		}
		seen[pa] = true
	}
}

func TestResetStats(t *testing.T) {
	w, _ := newWalker(t, DefaultConfig(), 1)
	if _, err := w.Walk(1); err != nil {
		t.Fatal(err)
	}
	w.ResetStats()
	if st := w.Stats(); st.Walks != 0 || st.PTAccesses != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
	// PWC contents survive: the next walk should hit PWC1.
	res, err := w.Walk(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.PTAccesses != 1 {
		t.Errorf("post-reset walk fetched %d PTEs, want 1 (PWC retained)", res.PTAccesses)
	}
}

func TestWalkCyclesAccumulate(t *testing.T) {
	w, _ := newWalker(t, DefaultConfig(), 10)
	if _, err := w.Walk(arch.VPN(1)); err != nil {
		t.Fatal(err)
	}
	// Full walk: 2 (PWC3 miss path) + 4 × 10 = 42 cycles.
	if got := w.Stats().WalkCycles; got != 42 {
		t.Errorf("WalkCycles = %d, want 42", got)
	}
	if _, err := w.Walk(arch.VPN(2)); err != nil { // PWC1 hit: 1 + 10
		t.Fatal(err)
	}
	if got := w.Stats().WalkCycles; got != 42+11 {
		t.Errorf("WalkCycles = %d, want 53", got)
	}
}

func TestPWCHitDistributionSums(t *testing.T) {
	w, _ := newWalker(t, DefaultConfig(), 1)
	for v := arch.VPN(0); v < 2000; v++ {
		if _, err := w.Walk(v * 7); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	total := st.FullWalks
	for _, h := range st.PWCHits {
		total += h
	}
	if total != st.Walks {
		t.Errorf("PWC hits (%v) + full walks (%d) = %d, want %d walks",
			st.PWCHits, st.FullWalks, total, st.Walks)
	}
}

// BenchmarkWalk measures a warm page walk: all 512 pages share one PDE, so
// every walk hits PWC1 and issues a single leaf PTE fetch.
func BenchmarkWalk(b *testing.B) {
	alloc, err := pagetable.NewAllocator(1<<20, pagetable.AllocSequential, 0)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := pagetable.New(alloc)
	if err != nil {
		b.Fatal(err)
	}
	w, err := New(pt, DefaultConfig(), func(arch.PAddr) arch.Lat { return 4 })
	if err != nil {
		b.Fatal(err)
	}
	const pages = 512
	for i := 0; i < pages; i++ {
		if _, err := w.Walk(arch.VPN(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Walk(arch.VPN(i % pages)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPWCsAreTagOnly: a walk reads only whether a PWC holds a key, so the
// page-walk caches keep no entry payload, and their clones keep none either.
func TestPWCsAreTagOnly(t *testing.T) {
	w, _ := newWalker(t, DefaultConfig(), 10)
	const last = arch.VPN(63 << 9)
	for v := arch.VPN(0); v <= last; v += 1 << 9 {
		if _, err := w.Walk(v); err != nil {
			t.Fatal(err)
		}
	}
	n, err := w.Clone(w.pt, w.fetch)
	if err != nil {
		t.Fatal(err)
	}
	for _, wk := range []*Walker{w, n} {
		for i, c := range wk.pwc {
			if b, ok := c.Probe(pwcKey(last, i)); !ok || b != nil {
				t.Errorf("PWC%d: Probe = %v, %v; want a resident key and no block", i+1, b, ok)
			}
		}
	}
}
