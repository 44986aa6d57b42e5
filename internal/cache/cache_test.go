package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/policy"
)

// victim reports the block that a Fill for key would evict, without
// changing any state; false when an invalid way would absorb the fill.
func (c *Cache) victim(key uint64) (Block, bool) {
	set := c.SetIndex(key)
	if c.live[set] != c.fullMask {
		return Block{}, false
	}
	return c.entry(set*c.ways + c.victimWay(set)), true
}

// markDeadKey dead-marks key's resident entry, reporting whether the key
// was resident.
func (c *Cache) markDeadKey(key uint64) bool {
	_, w, ok := c.Locate(key)
	if ok {
		c.MarkDead(key, w)
	}
	return ok
}

// deadMarked reports whether key's resident entry carries a dead-mark.
func (c *Cache) deadMarked(key uint64) bool {
	set, w, ok := c.Locate(key)
	return ok && c.dead[set]>>uint(w)&1 != 0
}

// TestBlockIs32Bytes pins the entry layout: two entries per 64-byte host
// line, the generation times kept apart (Gen).
func TestBlockIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 32 {
		t.Errorf("Block is %d bytes, want 32", got)
	}
}

// TestTrackTimesBeforeFirstFill: a cache starts tracking times only while
// empty, and a hit count past MaxHits saturates in the entry while its
// generation record keeps the exact count.
func TestTrackTimesBeforeFirstFill(t *testing.T) {
	c := mk(t, 1, 2)
	if c.TracksTimes() {
		t.Fatal("a new cache tracks times")
	}
	c.Install(1, policy.InsertMRU, 0)
	if err := c.TrackTimes(); err == nil {
		t.Error("a filled cache started tracking times")
	}
	c = mk(t, 1, 2)
	if err := c.TrackTimes(); err != nil {
		t.Fatal(err)
	}
	c.Install(1, policy.InsertMRU, 3)
	set, way, _ := c.Locate(1)
	b := c.HitRun(set, way, 300, 9)
	if g := c.GenAt(set, way); b.Hits != MaxHits || g != (Gen{FillTime: 3, LastHitTime: 9, Hits: 300}) {
		t.Errorf("after 300 hits: entry %d hits, gen %+v", b.Hits, g)
	}
}

func mk(t *testing.T, sets, ways int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "test", Sets: sets, Ways: ways})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(Config{Sets: 0, Ways: 4}); err == nil {
		t.Error("Sets=0 accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 0}); err == nil {
		t.Error("Ways=0 accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestLookupMissThenHit(t *testing.T) {
	c := mk(t, 4, 2)
	if err := c.TrackTimes(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(42, 1); ok {
		t.Fatal("hit in empty cache")
	}
	nb, _, ev := c.Fill(42, policy.InsertMRU, 2)
	if ev {
		t.Fatal("eviction from empty set")
	}
	set, way, ok := c.Locate(42)
	if nb.Key != 42 || !ok || c.GenAt(set, way).FillTime != 2 {
		t.Fatalf("bad new block: %+v %+v", *nb, c.GenAt(set, way))
	}
	b, ok := c.Lookup(42, 5)
	if !ok {
		t.Fatal("miss after fill")
	}
	if g := c.GenAt(set, way); !b.Accessed || b.Hits != 1 || g.Hits != 1 || g.LastHitTime != 5 {
		t.Fatalf("hit metadata wrong: %+v %+v", *b, g)
	}
	st := c.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestFillEvictsLRU(t *testing.T) {
	c := mk(t, 1, 2)
	c.Fill(10, policy.InsertMRU, 0)
	c.Fill(20, policy.InsertMRU, 0)
	c.Lookup(10, 1) // 20 becomes LRU
	_, victim, ev := c.Fill(30, policy.InsertMRU, 2)
	if !ev || victim.Key != 20 {
		t.Fatalf("victim = %+v (evicted=%v), want key 20", victim, ev)
	}
	if _, ok := c.Probe(10); !ok {
		t.Error("10 should survive")
	}
	if _, ok := c.Probe(20); ok {
		t.Error("20 should be gone")
	}
}

func TestVictimPreview(t *testing.T) {
	c := mk(t, 1, 2)
	if _, would := c.victim(99); would {
		t.Error("empty set should not predict an eviction")
	}
	c.Fill(1, policy.InsertMRU, 0)
	c.Fill(2, policy.InsertMRU, 0)
	v, would := c.victim(99)
	if !would || v.Key != 1 {
		t.Errorf("Victim = %+v (%v), want key 1", v, would)
	}
	// Preview must not mutate: repeated calls agree.
	v2, _ := c.victim(99)
	if v2.Key != v.Key {
		t.Error("Victim preview mutated state")
	}
}

func TestDeadMarkPriority(t *testing.T) {
	c := mk(t, 1, 4)
	for k := uint64(1); k <= 4; k++ {
		c.Fill(k, policy.InsertMRU, 0)
	}
	if !c.markDeadKey(3) {
		t.Fatal("MarkDeadKey(3) reported non-resident")
	}
	if !c.deadMarked(3) {
		t.Fatal("DeadMarked(3) false after MarkDeadKey")
	}
	c.Lookup(1, 1) // make 1 MRU; LRU victim would be 2
	_, victim, ev := c.Fill(5, policy.InsertMRU, 2)
	if !ev || victim.Key != 3 {
		t.Errorf("victim = %+v, want dead-marked key 3", victim)
	}
}

func TestDeadMarkClearedOnHit(t *testing.T) {
	c := mk(t, 1, 2)
	c.Fill(1, policy.InsertMRU, 0)
	c.markDeadKey(1)
	if _, ok := c.Lookup(1, 1); !ok {
		t.Fatal("miss on resident key")
	}
	if c.deadMarked(1) {
		t.Error("hit did not revive the dead-marked entry")
	}
}

func TestMarkDeadIgnoresInvalidWay(t *testing.T) {
	c := mk(t, 1, 2)
	c.Fill(1, policy.InsertMRU, 0)
	c.MarkDead(1, 1)  // way 1 is invalid
	c.MarkDead(1, -1) // out of range
	c.MarkDead(1, 7)  // out of range
	if c.deadMarked(1) {
		t.Error("invalid-way MarkDead leaked onto a resident entry")
	}
	if c.markDeadKey(99) {
		t.Error("MarkDeadKey on absent key reported resident")
	}
}

func TestDeadMarkPrefersPolicyVictim(t *testing.T) {
	c := mk(t, 1, 2)
	c.Fill(1, policy.InsertMRU, 0)
	c.Fill(2, policy.InsertMRU, 0)
	c.markDeadKey(1)
	c.markDeadKey(2)
	// Policy victim is 1 (LRU); with both dead-marked, pick the policy's.
	_, victim, _ := c.Fill(3, policy.InsertMRU, 1)
	if victim.Key != 1 {
		t.Errorf("victim = %d, want policy victim 1", victim.Key)
	}
}

func TestInvalidate(t *testing.T) {
	c := mk(t, 2, 2)
	c.Fill(4, policy.InsertMRU, 0)
	old, ok := c.Invalidate(4)
	if !ok || old.Key != 4 {
		t.Fatalf("Invalidate = %+v, %v", old, ok)
	}
	if _, ok := c.Probe(4); ok {
		t.Error("still resident after Invalidate")
	}
	if _, ok := c.Invalidate(4); ok {
		t.Error("double Invalidate reported success")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := mk(t, 1, 2)
	c.Fill(1, policy.InsertMRU, 0)
	c.Fill(2, policy.InsertMRU, 0)
	before := c.Stats()
	for i := 0; i < 10; i++ {
		c.Probe(1)
	}
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
	// Probing 1 repeatedly must not promote it: 1 is still LRU victim.
	_, victim, _ := c.Fill(3, policy.InsertMRU, 1)
	if victim.Key != 1 {
		t.Errorf("victim = %d, want 1 (Probe must not touch LRU)", victim.Key)
	}
}

func TestBumpSetCounters(t *testing.T) {
	c := mk(t, 1, 3)
	c.Fill(1, policy.InsertMRU, 0)
	c.Fill(2, policy.InsertMRU, 0)
	c.BumpSetCounters(1)
	b1, _ := c.Probe(1)
	b2, _ := c.Probe(2)
	if b1.AIPCount != 0 || b2.AIPCount != 1 {
		t.Errorf("counters = %d,%d; want 0,1", b1.AIPCount, b2.AIPCount)
	}
	// Counters saturate rather than wrap.
	b2.AIPCount = ^uint16(0)
	c.BumpSetCounters(1)
	if b2.AIPCount != ^uint16(0) {
		t.Errorf("AIPCount wrapped to %d", b2.AIPCount)
	}
}

func TestForEachVisitsValidOnly(t *testing.T) {
	c := mk(t, 8, 2)
	keys := []uint64{3, 12, 21} // distinct sets mod 8
	for _, k := range keys {
		c.Fill(k, policy.InsertMRU, 0)
	}
	seen := map[uint64]bool{}
	c.ForEach(func(_, _ int, b *Block) { seen[b.Key] = true })
	if len(seen) != len(keys) {
		t.Fatalf("visited %d blocks, want %d", len(seen), len(keys))
	}
	for _, k := range keys {
		if !seen[k] {
			t.Errorf("key %d not visited", k)
		}
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := mk(t, 2, 2)
	c.Fill(7, policy.InsertMRU, 0)
	c.Lookup(7, 1)
	c.ResetStats()
	if st := c.Stats(); st.Lookups != 0 || st.Hits != 0 || st.Fills != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
	if _, ok := c.Probe(7); !ok {
		t.Error("ResetStats dropped contents")
	}
}

// Property: after any fill sequence, residency never exceeds capacity and
// every resident key is findable.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		c := MustNew(Config{Name: "p", Sets: 4, Ways: 2})
		for _, k := range keys {
			if _, ok := c.Lookup(uint64(k), 0); !ok {
				c.Fill(uint64(k), policy.InsertMRU, 0)
			}
		}
		count := 0
		ok := true
		c.ForEach(func(_, _ int, b *Block) {
			count++
			if _, found := c.Probe(b.Key); !found {
				ok = false
			}
			if c.SetIndex(b.Key) >= c.Sets() {
				ok = false
			}
		})
		return ok && count <= c.Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a key is resident in exactly one way of exactly its set.
func TestSingleResidencyProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		c := MustNew(Config{Name: "p", Sets: 8, Ways: 4})
		for _, k := range keys {
			if _, ok := c.Lookup(uint64(k), 0); !ok {
				c.Fill(uint64(k), policy.InsertMRU, 0)
			}
		}
		counts := map[uint64]int{}
		c.ForEach(func(set, _ int, b *Block) {
			counts[b.Key]++
			if set != c.SetIndex(b.Key) {
				counts[b.Key] += 100 // flag wrong set
			}
		})
		for _, n := range counts {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == lookups, fills ≥ evictions.
func TestStatsBalanceProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		c := MustNew(Config{Name: "p", Sets: 2, Ways: 2})
		for _, k := range keys {
			if _, ok := c.Lookup(uint64(k), 0); !ok {
				c.Fill(uint64(k), policy.InsertMRU, 0)
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Lookups && st.Fills >= st.Evictions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSRRIPPolicyIntegration(t *testing.T) {
	c := MustNew(Config{Name: "srrip", Sets: 1, Ways: 2, Policy: policy.SRRIP{}})
	c.Fill(1, policy.InsertMRU, 0)
	c.Fill(2, policy.InsertMRU, 0)
	c.Lookup(1, 1)
	_, victim, ev := c.Fill(3, policy.InsertMRU, 2)
	if !ev || victim.Key != 2 {
		t.Errorf("victim = %+v, want key 2 under SRRIP", victim)
	}
}

// BenchmarkLLCFill measures a fill into a full LLC-geometry cache (2048
// sets, 16 ways): LRU victim scan, eviction and block install.
func BenchmarkLLCFill(b *testing.B) {
	c, err := New(Config{Name: "LLC", Sets: 2048, Ways: 16})
	if err != nil {
		b.Fatal(err)
	}
	warm := c.Sets() * c.Ways()
	for i := 0; i < warm; i++ {
		c.Fill(uint64(i), policy.InsertMRU, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(warm+i), policy.InsertMRU, uint64(warm+i))
	}
}

// BenchmarkLLCMissPath measures the simulated LLC miss path the way the
// machine drives it when nothing reads LLC victims: a lookup that misses
// in the 2048×16 LLC, a fill that keeps no copy of its victim, the
// back-invalidation of the victim's key from a 512×8 and a 64×8 inner
// cache, and the new block's fill into both. Keys are scrambled so
// successive misses land in unrelated sets, as they do in the grid.
func BenchmarkLLCMissPath(b *testing.B) {
	llc := MustNew(Config{Name: "LLC", Sets: 2048, Ways: 16})
	l2 := MustNew(Config{Name: "L2", Sets: 512, Ways: 8})
	l1 := MustNew(Config{Name: "L1D", Sets: 64, Ways: 8})
	key := func(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 >> 20 }
	miss := func(i int) {
		k, now := key(i), uint64(i)
		if _, ok := llc.Lookup(k, now); ok {
			b.Fatalf("key %#x hit", k)
		}
		if _, vk, evicted := llc.FillVictim(k, policy.InsertMRU, now, nil); evicted {
			l2.Invalidate(vk)
			l1.Invalidate(vk)
		}
		l2.Install(k, policy.InsertMRU, now)
		l1.Install(k, policy.InsertMRU, now)
	}
	warm := 4 * llc.Capacity()
	for i := 0; i < warm; i++ {
		miss(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(warm + i)
	}
}

// TestInstallMatchesFill: Install leaves the cache exactly as Fill does;
// it only skips handing back the victim.
func TestInstallMatchesFill(t *testing.T) {
	a, b := mk(t, 4, 2), mk(t, 4, 2)
	for i := uint64(0); i < 64; i++ {
		key := i * 7 % 23
		hint := policy.InsertHint(i % 2)
		now := i
		if _, ok := a.Lookup(key, now); !ok {
			nb, _, _ := a.Fill(key, hint, now)
			nb.DP = i%3 == 0
		}
		if _, ok := b.Lookup(key, now); !ok {
			b.Install(key, hint, now).DP = i%3 == 0
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats differ: Fill %+v, Install %+v", a.Stats(), b.Stats())
	}
	a.ForEach(func(set, way int, blk *Block) {
		var got *Block
		b.ForEach(func(s, w int, bb *Block) {
			if s == set && w == way {
				got = bb
			}
		})
		if got == nil || *got != *blk {
			t.Errorf("set %d way %d: Install left %+v, Fill %+v", set, way, got, blk)
		}
	})
}
