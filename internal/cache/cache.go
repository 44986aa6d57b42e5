// Package cache implements the generic set-associative structure that backs
// every lookup array in the simulated machine: the data caches (L1D, L2,
// LLC), the TLBs, and the tag-only mirror structures used to measure
// predictor accuracy.
//
// A cache stores Blocks keyed by an opaque 64-bit key: the physical block
// number for data caches, the virtual page number for TLBs. Each entry
// carries the metadata the paper's predictors need — the Accessed bit and
// DP bit of §V, the PC-hash/signature state of the SHiP and AIP baselines,
// a saturating hit count — in 32 bytes. The fill/last-hit timestamps and
// exact hit counts of the §IV dead-entry characterization live in a
// per-way side array that only a cache asked to (TrackTimes) allocates.
//
// Storage layout (hot path). Each set owns one record of 8-byte words in a
// single slice: its W tags, then (under the default LRU policy) its W use
// stamps, so set s spans [2·s·W, 2·(s+1)·W). A lookup scans the tags 8 bytes
// per way, and the victim search that follows a miss reads the stamps on
// the host lines right after them. The Block payloads sit in their own
// slice indexed set*W+way and are touched only on a hit or a fill; the
// optional generation records (Gen) run parallel to them. Three per-set
// arrays stay dense: the packed valid and dead-mark bit words, so "any
// invalid way?" and "any dead-marked way?" are single-word tests (the
// valid word alone decides whether a way holds an entry), and the LRU
// clock. A fully-warm access performs no interface-method calls and
// no heap allocations. A fill copies its victim's Block out only when the
// caller passes a buffer (FillVictim); the victim's key always comes back,
// read from the tag record.
//
// Storage modes. A cache built with Config.TagOnly keeps no Block payloads,
// only one saturating hit count per way beside its tags: the structures
// whose entries nobody reads or writes (the inner data caches, the
// page-walk caches, an LLC without a predictor) need no more. Its Lookup,
// HitAt, HitRun, Probe, FillVictim and Install return a nil *Block, and
// every copy it hands out (victims, invalidated entries, ForEach) is built
// as Block{Key: tag, Hits: h, Accessed: h > 0} — exactly the entry a
// payload cache holds when no caller writes its fields. KeepPayload turns
// a tag-only cache into a payload cache without loss; checkpoints read the
// same from either mode.
//
// Storage lifetime. A cache built with Config.Pool draws every array it
// owns from that pool, and so do its clones; Release hands them back for
// the next cache of the same geometry, which gets them cleared (or
// overwritten by Clone's copy), and leaves the released cache without
// storage.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/policy"
	"repro/internal/pool"
)

// Block is one entry of a set-associative structure, including all
// predictor-visible metadata. Fields are ordered widest-first so one entry
// packs into 32 bytes, two to a host cache line.
type Block struct {
	// Key identifies the entry: physical block number for caches,
	// virtual page number for TLBs.
	Key uint64
	// Data is payload carried with the entry (the PFN for TLB entries);
	// data caches leave it zero.
	Data uint64

	// PCHash is dpPred's per-TLB-entry hash of the PC that triggered the
	// fill (6 bits by default, §V-A).
	PCHash uint16
	// Sig is the SHiP signature stored with the entry.
	Sig uint16

	// AIPCount is the AIP event counter (accesses to the set since this
	// entry was last touched). The AIP predictor resets it on hits.
	AIPCount uint16
	// AIPMax is the largest access interval observed this generation.
	AIPMax uint16
	// AIPThreshold is the death threshold loaded from AIP's prediction
	// table at fill time.
	AIPThreshold uint16

	// Hits counts hits this generation, saturating at MaxHits. Its
	// readers (SHiP, the accuracy and confusion graders, the DOA
	// correlation) only tell 0, 1 and more apart; the exact count is in
	// the entry's Gen.
	Hits uint8

	// Accessed is the paper's per-entry Accessed bit: set on the first
	// hit after fill, examined at eviction to detect dead-on-arrival
	// entries (§V-A, §V-B).
	Accessed bool
	// DP is cbPred's dead-page bit: the block was filled while its frame
	// was in the PFN filter queue (§V-B).
	DP bool
	// Prefetched marks entries installed speculatively by a TLB
	// prefetcher; they do not train the dead-entry predictors.
	Prefetched bool
	// Outcome is SHiP's per-entry reuse bit.
	Outcome bool
	// AIPConf is the confidence bit loaded with AIPThreshold.
	AIPConf bool
}

// MaxHits is where Block.Hits saturates.
const MaxHits = ^uint8(0)

// addHits returns h+k saturated at MaxHits.
func addHits(h uint8, k uint64) uint8 {
	if k >= uint64(MaxHits-h) {
		return MaxHits
	}
	return h + uint8(k)
}

// Gen is the timing record of one way's current generation, for the §IV
// dead/live classification: times are supplied by the caller (simulated
// cycles), Hits is the exact hit count. Only a cache that tracks times
// (TrackTimes) keeps them.
type Gen struct {
	FillTime    uint64
	LastHitTime uint64
	Hits        uint64
}

// Config sizes a cache.
type Config struct {
	// Name labels the structure in error messages and reports.
	Name string
	// Sets is the number of sets; must be ≥ 1.
	Sets int
	// Ways is the associativity; must be in [1, 64] (the valid and
	// dead-mark bits of a set are packed into single words).
	Ways int
	// Policy chooses victims within a set; nil means LRU.
	Policy policy.Policy
	// TagOnly builds the cache without Block payloads (see the package
	// comment); KeepPayload adds them later.
	TagOnly bool
	// Pool, when set, is where the cache and its clones draw their arrays
	// from and where Release returns them; nil allocates them.
	Pool *pool.Pool
}

// Cache is a set-associative lookup structure.
type Cache struct {
	name string
	sets int
	ways int

	// setMask is sets-1 when sets is a power of two (the common case);
	// pow2 selects between the masked and modulo index paths.
	setMask uint64
	pow2    bool
	// fullMask has the low `ways` bits set: a set whose live word equals
	// it has no invalid way.
	fullMask uint64

	// rec holds one record per set: set s occupies rec[s*stride:] with its
	// tags (entry keys, scanned on lookup) in the first `ways` words and,
	// under LRU, its per-way use stamps in the next `ways`. stride is
	// 2*ways under LRU and ways otherwise.
	rec    []uint64
	stride int
	// blocks holds the full metadata payloads, indexed by set*ways+way.
	// A tag-only cache has none and keeps counts, one saturating hit
	// count per way, instead; exactly one of the two is non-nil.
	blocks []Block
	counts []uint8
	// gens holds the generation records parallel to blocks; nil unless
	// the cache tracks times. evicted is the record of the entry the
	// latest fill evicted.
	gens    []Gen
	evicted Gen

	// Packed per-set bit words (bit w = way w).
	live []uint64 // valid bits
	dead []uint64 // dead-mark bits (see MarkDead)

	// lruClock is the inlined LRU policy's per-set clock; it is non-nil
	// exactly when the policy is LRU (and the records carry stamps).
	lruClock []uint64
	// repl holds per-set policy state for non-LRU policies (nil when the
	// LRU fast path is active).
	repl []policy.Set

	// pool supplies the arrays above and takes them back (Release).
	pool *pool.Pool

	// Statistics maintained by the structure itself.
	lookups   uint64
	hits      uint64
	fills     uint64
	bypasses  uint64
	evictions uint64
}

// New creates a cache from the configuration.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets < 1 || cfg.Ways < 1 {
		return nil, fmt.Errorf("cache %q: need sets ≥ 1 and ways ≥ 1, got %d×%d",
			cfg.Name, cfg.Sets, cfg.Ways)
	}
	if cfg.Ways > 64 {
		return nil, fmt.Errorf("cache %q: ways %d exceeds the 64-way packing limit",
			cfg.Name, cfg.Ways)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.LRU{}
	}
	c := &Cache{
		name:     cfg.Name,
		sets:     cfg.Sets,
		ways:     cfg.Ways,
		setMask:  uint64(cfg.Sets - 1),
		pow2:     cfg.Sets&(cfg.Sets-1) == 0,
		fullMask: fullWays(cfg.Ways),
		stride:   cfg.Ways,
		live:     pool.Make[uint64](cfg.Pool, cfg.Sets),
		dead:     pool.Make[uint64](cfg.Pool, cfg.Sets),
		pool:     cfg.Pool,
	}
	if cfg.TagOnly {
		c.counts = pool.Make[uint8](cfg.Pool, cfg.Sets*cfg.Ways)
	} else {
		c.blocks = pool.Make[Block](cfg.Pool, cfg.Sets*cfg.Ways)
	}
	if _, isLRU := pol.(policy.LRU); isLRU {
		// Inline the default policy over the set records; state mirrors
		// policy.LRU.NewSet exactly (distinct initial stamps, clock at
		// ways) so victim choices are bit-identical.
		c.stride = 2 * cfg.Ways
		c.rec = pool.Make[uint64](cfg.Pool, cfg.Sets*c.stride)
		c.lruClock = pool.Make[uint64](cfg.Pool, cfg.Sets)
		for s := 0; s < cfg.Sets; s++ {
			for w, stamps := 0, c.stamps(s); w < cfg.Ways; w++ {
				stamps[w] = uint64(w)
			}
			c.lruClock[s] = uint64(cfg.Ways)
		}
		return c, nil
	}
	c.rec = pool.Make[uint64](cfg.Pool, cfg.Sets*c.stride)
	c.repl = make([]policy.Set, cfg.Sets)
	for s := 0; s < cfg.Sets; s++ {
		c.repl[s] = pol.NewSet(cfg.Ways)
	}
	return c, nil
}

// fullWays returns a word with the low n bits set (n ≤ 64).
func fullWays(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// tags returns the set's tag words.
func (c *Cache) tags(set int) []uint64 {
	rb := set * c.stride
	return c.rec[rb : rb+c.ways]
}

// stamps returns the set's LRU use stamps (LRU policy only).
func (c *Cache) stamps(set int) []uint64 {
	sb := set*c.stride + c.ways
	return c.rec[sb : sb+c.ways]
}

// MustNew is New that panics on configuration errors; for tests and
// compile-time-constant configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the total number of entries.
func (c *Cache) Capacity() int { return c.sets * c.ways }

// TrackTimes makes the cache keep a generation record (Gen) per way. The
// records must cover every entry's whole generation, so it fails once the
// cache holds an entry; on a cache that already tracks times it is a
// no-op.
func (c *Cache) TrackTimes() error {
	if c.gens != nil {
		return nil
	}
	for _, live := range c.live {
		if live != 0 {
			return fmt.Errorf("cache %q: entry times must be tracked from the first fill", c.name)
		}
	}
	c.gens = pool.Make[Gen](c.pool, c.Capacity())
	return nil
}

// KeepPayload gives a tag-only cache its Block payloads, rebuilt from the
// tags and hit counts without loss; on a payload cache it is a no-op.
// Callers that read or write entry fields (the LLC predictors) need it.
func (c *Cache) KeepPayload() {
	if c.blocks != nil {
		return
	}
	blocks := pool.Make[Block](c.pool, c.Capacity())
	for i := range blocks {
		blocks[i] = c.entry(i)
	}
	pool.Put(c.pool, c.counts)
	c.blocks, c.counts = blocks, nil
}

// Release returns the cache's arrays to its pool (Config.Pool) and leaves
// it without storage: any later lookup, fill or walk panics, so a stale
// reference can never read the state of the cache the arrays go to next.
// Statistics stay readable. A released cache stays released.
func (c *Cache) Release() {
	pool.Put(c.pool, c.rec)
	pool.Put(c.pool, c.blocks)
	pool.Put(c.pool, c.counts)
	pool.Put(c.pool, c.gens)
	pool.Put(c.pool, c.live)
	pool.Put(c.pool, c.dead)
	pool.Put(c.pool, c.lruClock)
	c.rec, c.blocks, c.counts, c.gens = nil, nil, nil, nil
	c.live, c.dead, c.lruClock, c.repl = nil, nil, nil, nil
}

// entries returns every way's entry: the payload itself, or a tag-only
// cache's entries built afresh.
func (c *Cache) entries() []Block {
	if c.blocks != nil {
		return c.blocks
	}
	blocks := make([]Block, c.Capacity())
	for i := range blocks {
		blocks[i] = c.entry(i)
	}
	return blocks
}

// entry returns a copy of entry i (set*ways+way); a tag-only cache builds
// it from the way's tag and hit count.
func (c *Cache) entry(i int) Block {
	if c.blocks != nil {
		return c.blocks[i]
	}
	h := c.counts[i]
	return Block{Key: c.rec[i/c.ways*c.stride+i%c.ways], Hits: h, Accessed: h > 0}
}

// TracksTimes reports whether the cache keeps generation records.
func (c *Cache) TracksTimes() bool { return c.gens != nil }

// GenAt returns the generation record of the entry at (set, way); zero
// unless the cache tracks times.
func (c *Cache) GenAt(set, way int) Gen {
	if c.gens == nil {
		return Gen{}
	}
	return c.gens[set*c.ways+way]
}

// EvictedGen returns the generation record of the entry the latest fill
// evicted; zero unless the cache tracks times. Read it before the next
// fill: checkpoints and clones do not carry it.
func (c *Cache) EvictedGen() Gen { return c.evicted }

// SetIndex maps a key to its set.
func (c *Cache) SetIndex(key uint64) int {
	if c.pow2 {
		return int(key & c.setMask)
	}
	return int(key % uint64(c.sets))
}

// Lookup probes the cache for the key at simulated time now. On a hit it
// updates replacement state, sets the Accessed bit, bumps hit counters
// (and the generation record's hit count and last-hit time) and returns
// the resident block (nil in a tag-only cache). On a miss it returns (nil,
// false). A hit also clears the way's dead-mark (a re-referenced entry is
// live again — the revive AIP performs on every hit).
func (c *Cache) Lookup(key uint64, now uint64) (*Block, bool) {
	c.lookups++
	set := c.SetIndex(key)
	base := set * c.ways
	tags := c.tags(set)
	if live := c.live[set]; live == c.fullMask {
		// Full set (the warm steady state): every tag is backed by a
		// valid entry, so the scan is pure 8-byte compares.
		for w := range tags {
			if tags[w] == key {
				return c.hit(set, base, w, now), true
			}
		}
		return nil, false
	} else {
		for w := range tags {
			if tags[w] == key && live>>uint(w)&1 != 0 {
				return c.hit(set, base, w, now), true
			}
		}
	}
	return nil, false
}

// hit applies the hit-path side effects for the entry at (set, way).
func (c *Cache) hit(set, base, w int, now uint64) *Block {
	c.hits++
	var b *Block
	if c.blocks != nil {
		b = &c.blocks[base+w]
		b.Accessed = true
		if b.Hits != MaxHits {
			b.Hits++
		}
	} else if h := c.counts[base+w]; h != MaxHits {
		c.counts[base+w] = h + 1
	}
	if c.gens != nil {
		g := &c.gens[base+w]
		g.Hits++
		g.LastHitTime = now
	}
	if d := c.dead[set]; d != 0 {
		c.dead[set] = d &^ (1 << uint(w))
	}
	if c.lruClock != nil {
		clk := c.lruClock[set] + 1
		c.lruClock[set] = clk
		c.rec[set*c.stride+c.ways+w] = clk
	} else {
		c.repl[set].Touch(w)
	}
	return b
}

// Locate finds the resident slot for key with no side effects at all — no
// statistics, no replacement update, no Accessed bit. The batched
// simulation loop uses it to pin down a (set, way) after the slow path
// resolved an access; HitAt later replays hits against that slot directly.
func (c *Cache) Locate(key uint64) (set, way int, ok bool) {
	set = c.SetIndex(key)
	tags := c.tags(set)
	live := c.live[set]
	for w := range tags {
		if tags[w] == key && live>>uint(w)&1 != 0 {
			return set, w, true
		}
	}
	return 0, 0, false
}

// HitAt replays a Lookup hit against a previously Located (set, way) slot.
// It is guarded: the slot must still hold key and be live, and only then
// do the full hit-path side effects run (lookup/hit counters, Accessed
// bit, dead-bit clear, replacement touch) — bit-identical to Lookup
// finding the same entry, because tags are unique within a set. A failed
// guard has no side effects whatsoever; the caller falls back to the full
// path. This is what makes a memoized (set, way) safe against any
// intervening eviction or invalidation: the guard detects it and the slow
// path re-resolves.
func (c *Cache) HitAt(set, way int, key, now uint64) (*Block, bool) {
	if c.rec[set*c.stride+way] != key || c.live[set]>>uint(way)&1 == 0 {
		return nil, false
	}
	c.lookups++
	return c.hit(set, set*c.ways, way, now), true
}

// CoalescibleHits reports whether a run of consecutive hits to one slot
// can be applied as a single coalesced update (HitRun). True only for the
// stamp-based LRU policy, whose hit effect has a closed form over k
// repeats; pluggable policies keep opaque per-hit state, so callers must
// replay their hits one by one through Lookup or HitAt.
func (c *Cache) CoalescibleHits() bool { return c.lruClock != nil }

// HitRun applies k deferred hits to a slot in one update, bit-identical
// to k individual Lookup hits on that slot of which the last happened at
// time lastNow — provided the cache saw no other traffic (lookups, fills,
// invalidations, flushes) between those hits, which is the caller's
// contract, and the policy is coalescible (CoalescibleHits). The per-hit
// effects all have closed forms under that contract: counters add k (the
// entry's saturating), the Accessed bit and dead-bit clear are idempotent,
// LastHitTime keeps only the final time, and k consecutive LRU touches of
// one way advance the set clock by k and leave the way holding the final
// stamp.
func (c *Cache) HitRun(set, way int, k, lastNow uint64) *Block {
	base := set * c.ways
	c.lookups += k
	c.hits += k
	var b *Block
	if c.blocks != nil {
		b = &c.blocks[base+way]
		b.Accessed = true
		b.Hits = addHits(b.Hits, k)
	} else {
		c.counts[base+way] = addHits(c.counts[base+way], k)
	}
	if c.gens != nil {
		g := &c.gens[base+way]
		g.Hits += k
		g.LastHitTime = lastNow
	}
	if d := c.dead[set]; d != 0 {
		c.dead[set] = d &^ (1 << uint(way))
	}
	clk := c.lruClock[set] + k
	c.lruClock[set] = clk
	c.rec[set*c.stride+c.ways+way] = clk
	return b
}

// Probe checks residency without touching replacement state, the Accessed
// bit or statistics. Mirror structures and tests use it.
func (c *Cache) Probe(key uint64) (*Block, bool) {
	set, w, ok := c.Locate(key)
	if !ok || c.blocks == nil {
		return nil, ok
	}
	return &c.blocks[set*c.ways+w], true
}

// victimWay picks the way a fill into a full set replaces: the policy's
// victim if it is dead-marked (or no way is), otherwise the first
// dead-marked way.
func (c *Cache) victimWay(set int) int {
	pv := c.policyVictim(set)
	if d := c.dead[set]; d != 0 && d>>uint(pv)&1 == 0 {
		return bits.TrailingZeros64(d)
	}
	return pv
}

// policyVictim returns the replacement policy's victim for the set.
func (c *Cache) policyVictim(set int) int {
	if c.lruClock == nil {
		return c.repl[set].Victim()
	}
	stamps := c.stamps(set)
	v, min := 0, stamps[0]
	for w := 1; w < len(stamps); w++ {
		if s := stamps[w]; s < min {
			v, min = w, s
		}
	}
	return v
}

// Fill allocates an entry for the key, evicting if necessary, and returns
// a copy of the evicted block (evicted=false when an invalid way was used).
// The new block's metadata starts clean except for fields the caller sets
// afterwards through the returned pointer.
func (c *Cache) Fill(key uint64, hint policy.InsertHint, now uint64) (nb *Block, victim Block, evicted bool) {
	nb, _, evicted = c.FillVictim(key, hint, now, &victim)
	return nb, victim, evicted
}

// Install is Fill for callers that discard the victim (silent inner-level
// evictions): it skips copying the evicted block out.
func (c *Cache) Install(key uint64, hint policy.InsertHint, now uint64) *Block {
	nb, _, _ := c.FillVictim(key, hint, now, nil)
	return nb
}

// FillVictim is the fill behind Fill and Install; its new block is nil in
// a tag-only cache. When it evicts, it returns the victim's key, read from
// the tag record, and copies the victim's whole Block into `into` only
// when `into` is non-nil — so a caller that needs no more than the key
// never loads the old payload. A
// cache that tracks times keeps the victim's Gen for EvictedGen.
func (c *Cache) FillVictim(key uint64, hint policy.InsertHint, now uint64, into *Block) (nb *Block, victimKey uint64, evicted bool) {
	c.fills++
	set := c.SetIndex(key)
	base := set * c.ways
	tags := c.tags(set)
	var way int
	if live := c.live[set]; live != c.fullMask {
		way = bits.TrailingZeros64(^live & c.fullMask)
	} else {
		way = c.victimWay(set)
		victimKey = tags[way]
		if into != nil {
			*into = c.entry(base + way)
		}
		evicted = true
		c.evictions++
	}
	if c.gens != nil {
		if evicted {
			c.evicted = c.gens[base+way]
		}
		c.gens[base+way] = Gen{FillTime: now}
	}
	tags[way] = key
	c.live[set] |= 1 << uint(way)
	if d := c.dead[set]; d != 0 {
		c.dead[set] = d &^ (1 << uint(way))
	}
	if c.lruClock != nil {
		c.lruInsert(set, way, hint)
	} else {
		c.repl[set].Insert(way, hint)
	}
	if c.blocks == nil {
		c.counts[base+way] = 0
		return nil, victimKey, evicted
	}
	c.blocks[base+way] = Block{Key: key}
	return &c.blocks[base+way], victimKey, evicted
}

// lruInsert is the inlined equivalent of policy.LRU's Insert: MRU insertion
// bumps the clock; distant insertion stamps the way older than everything
// resident (shifting stamps up when zero is already taken).
func (c *Cache) lruInsert(set, way int, hint policy.InsertHint) {
	stamps := c.stamps(set)
	if hint == policy.InsertDistant {
		min := stamps[0]
		for _, st := range stamps[1:] {
			if st < min {
				min = st
			}
		}
		if min == 0 {
			for i := range stamps {
				stamps[i]++
			}
			c.lruClock[set]++
			min = 1
		}
		stamps[way] = min - 1
		return
	}
	clk := c.lruClock[set] + 1
	c.lruClock[set] = clk
	stamps[way] = clk
}

// MarkDead flags the resident entry at the given way of key's set as a
// preferred victim (AIP's dead-block marking). The mark clears when the
// entry is hit, refilled or invalidated.
func (c *Cache) MarkDead(key uint64, way int) {
	set := c.SetIndex(key)
	if way < 0 || way >= c.ways || c.live[set]>>uint(way)&1 == 0 {
		return
	}
	c.dead[set] |= 1 << uint(way)
}

// RecordBypass counts a fill that a predictor suppressed.
func (c *Cache) RecordBypass() { c.bypasses++ }

// Invalidate removes the key if resident, returning a copy of the removed
// block. Used for inclusive-LLC back-invalidation.
func (c *Cache) Invalidate(key uint64) (Block, bool) {
	set := c.SetIndex(key)
	base := set * c.ways
	tags := c.tags(set)
	for w, tag := range tags {
		if tag == key && c.live[set]>>uint(w)&1 != 0 {
			old := c.entry(base + w)
			if c.blocks != nil {
				c.blocks[base+w] = Block{}
			} else {
				c.counts[base+w] = 0
			}
			if c.gens != nil {
				c.gens[base+w] = Gen{}
			}
			tags[w] = 0
			c.live[set] &^= 1 << uint(w)
			c.dead[set] &^= 1 << uint(w)
			if c.lruClock != nil {
				// An invalidated way becomes the best victim.
				c.stamps(set)[w] = 0
			} else {
				c.repl[set].Invalidate(w)
			}
			return old, true
		}
	}
	return Block{}, false
}

// ForEachInSet visits every valid block in the set containing key.
// Predictors with per-set bookkeeping (AIP) use it on the access path; like
// BumpSetCounters, it needs a payload cache.
func (c *Cache) ForEachInSet(key uint64, fn func(way int, b *Block)) {
	set := c.SetIndex(key)
	base := set * c.ways
	for m := c.live[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		fn(w, &c.blocks[base+w])
	}
}

// ForEach visits every valid block. Samplers use it to snapshot residency.
// A tag-only cache passes a built copy, so writes through b are lost.
func (c *Cache) ForEach(fn func(set, way int, b *Block)) {
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		for m := c.live[s]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if c.blocks != nil {
				fn(s, w, &c.blocks[base+w])
			} else {
				b := c.entry(base + w)
				fn(s, w, &b)
			}
		}
	}
}

// BumpSetCounters lets predictors (AIP) advance the per-set access-interval
// counters: every valid block in key's set except key itself gets
// AIPCount+1 (saturating).
func (c *Cache) BumpSetCounters(key uint64) {
	set := c.SetIndex(key)
	base := set * c.ways
	for m := c.live[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		b := &c.blocks[base+w]
		if b.Key != key && b.AIPCount < ^uint16(0) {
			b.AIPCount++
		}
	}
}

// Stats is a snapshot of the cache's internal counters.
type Stats struct {
	Lookups   uint64
	Hits      uint64
	Misses    uint64
	Fills     uint64
	Bypasses  uint64
	Evictions uint64
}

// Stats returns a snapshot of activity counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:   c.lookups,
		Hits:      c.hits,
		Misses:    c.lookups - c.hits,
		Fills:     c.fills,
		Bypasses:  c.bypasses,
		Evictions: c.evictions,
	}
}

// ResetStats zeroes the activity counters (warmup support) without
// touching cache contents.
func (c *Cache) ResetStats() {
	c.lookups, c.hits, c.fills, c.bypasses, c.evictions = 0, 0, 0, 0, 0
}
