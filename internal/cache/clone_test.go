package cache

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/pool"
)

// warmClone builds a small LRU cache, fills it with a mixed pattern (some
// ways dead-marked, some sets partially valid) and returns it with a clone.
func warmClone(t *testing.T) (*Cache, *Cache) {
	t.Helper()
	c, err := New(Config{Name: "t", Sets: 8, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 40; k++ {
		if _, ok := c.Lookup(k, k); !ok {
			c.Fill(k, policy.InsertMRU, k)
		}
		if k%3 == 0 {
			c.markDeadKey(k)
		}
	}
	n, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c, n
}

// snapshotBits captures the packed valid/dead bit words and every block.
func snapshotBits(c *Cache) ([]uint64, []uint64, []Block, Stats) {
	return append([]uint64(nil), c.live...),
		append([]uint64(nil), c.dead...),
		append([]Block(nil), c.blocks...),
		c.Stats()
}

// TestClonePackedBitWordsRoundTrip: the per-set valid and dead-mark words
// must survive Clone exactly — every way's Valid/dead state, not just the
// block payloads.
func TestClonePackedBitWordsRoundTrip(t *testing.T) {
	c, n := warmClone(t)
	live0, dead0, blocks0, stats0 := snapshotBits(c)
	live1, dead1, blocks1, stats1 := snapshotBits(n)
	for s := range live0 {
		if live0[s] != live1[s] {
			t.Errorf("set %d: live word %#x != clone %#x", s, live0[s], live1[s])
		}
		if dead0[s] != dead1[s] {
			t.Errorf("set %d: dead word %#x != clone %#x", s, dead0[s], dead1[s])
		}
	}
	for i := range blocks0 {
		if blocks0[i] != blocks1[i] {
			t.Errorf("block %d: %+v != clone %+v", i, blocks0[i], blocks1[i])
		}
	}
	if stats0 != stats1 {
		t.Errorf("stats %+v != clone %+v", stats0, stats1)
	}
}

// TestCloneSharesNoMutableState: mutating the clone (fills, evictions,
// dead-marks, invalidations) must leave the parent bit-for-bit untouched,
// and vice versa.
func TestCloneSharesNoMutableState(t *testing.T) {
	c, n := warmClone(t)
	live0, dead0, blocks0, stats0 := snapshotBits(c)

	for k := uint64(100); k < 160; k++ {
		if _, ok := n.Lookup(k, k); !ok {
			n.Fill(k, policy.InsertMRU, k)
		}
		n.markDeadKey(k)
		if k%2 == 0 {
			n.Invalidate(k)
		}
	}

	live1, dead1, blocks1, stats1 := snapshotBits(c)
	for s := range live0 {
		if live0[s] != live1[s] || dead0[s] != dead1[s] {
			t.Fatalf("set %d: parent bit words changed by mutating the clone", s)
		}
	}
	for i := range blocks0 {
		if blocks0[i] != blocks1[i] {
			t.Fatalf("block %d: parent payload changed by mutating the clone", i)
		}
	}
	if stats0 != stats1 {
		t.Fatalf("parent stats changed by mutating the clone: %+v -> %+v", stats0, stats1)
	}

	// And the reverse direction: parent mutations invisible to the clone.
	liveN, deadN, blocksN, statsN := snapshotBits(n)
	for k := uint64(200); k < 230; k++ {
		c.Fill(k, policy.InsertMRU, k)
	}
	liveN2, deadN2, blocksN2, statsN2 := snapshotBits(n)
	for s := range liveN {
		if liveN[s] != liveN2[s] || deadN[s] != deadN2[s] {
			t.Fatalf("set %d: clone bit words changed by mutating the parent", s)
		}
	}
	for i := range blocksN {
		if blocksN[i] != blocksN2[i] {
			t.Fatalf("block %d: clone payload changed by mutating the parent", i)
		}
	}
	if statsN != statsN2 {
		t.Fatalf("clone stats changed by mutating the parent")
	}
}

// TestCloneDIPSharedPSEL: DIP's set-dueling PSEL counter is shared between
// that cache's sets by design; Clone must preserve the sharing topology
// inside the clone without aliasing the original's counter.
func TestCloneDIPSharedPSEL(t *testing.T) {
	c, err := New(Config{Name: "dip", Sets: 16, Ways: 4, Policy: policy.NewDIP()})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if _, ok := c.Lookup(k, k); !ok {
			c.Fill(k, policy.InsertMRU, k)
		}
	}
	n, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	// Drive the clone hard; the original's stats and victim choices must
	// not move.
	for k := uint64(300); k < 600; k++ {
		if _, ok := n.Lookup(k, k); !ok {
			n.Fill(k, policy.InsertMRU, k)
		}
	}
	if c.Stats() != before {
		t.Error("original DIP cache perturbed by driving the clone")
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a released cache did not panic", what)
		}
	}()
	fn()
}

// TestReleasedCachePanics: Release hands the arrays to the pool and leaves
// the cache without storage, so every later access panics instead of
// reading arrays another cache now owns. A clone taken before keeps its
// entries, and a cache built on the recycled arrays starts empty.
func TestReleasedCachePanics(t *testing.T) {
	p := pool.New(2)
	for _, tagOnly := range []bool{false, true} {
		c := MustNew(Config{Name: "t", Sets: 8, Ways: 4, TagOnly: tagOnly, Pool: p})
		for k := uint64(0); k < 40; k++ {
			c.Fill(k, policy.InsertMRU, k)
		}
		n, err := c.Clone()
		if err != nil {
			t.Fatal(err)
		}
		c.Release()
		c.Release() // idempotent
		mustPanic(t, "Lookup", func() { c.Lookup(39, 0) })
		mustPanic(t, "Fill", func() { c.Fill(1, policy.InsertMRU, 0) })
		mustPanic(t, "ForEach", func() { c.ForEach(func(int, int, *Block) {}) })
		if _, ok := n.Lookup(39, 0); !ok {
			t.Error("the clone lost its entries when the original was released")
		}
		fresh := MustNew(Config{Name: "t", Sets: 8, Ways: 4, TagOnly: tagOnly, Pool: p})
		fresh.ForEach(func(s, w int, b *Block) { t.Errorf("a cache built on recycled storage holds (%d,%d) %+v", s, w, *b) })
	}
}
