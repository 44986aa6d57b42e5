package cache

import "repro/internal/ckpt"

// EncodeState serializes the cache's full mutable state — entries, their
// generation records when the cache tracks times, packed valid/dead bit
// words, inlined LRU state and statistics — for warm-state checkpointing.
// The set records are written split, every set's tags first and every
// set's stamps later, so the bytes do not depend on the in-memory layout.
// Geometry is stamped so DecodeState can reject a checkpoint taken under a
// different configuration. A tag-only cache writes the entries it would
// hold as a payload cache, so the bytes do not depend on the storage mode
// either. Non-LRU replacement state is not serializable (policy sets are
// opaque); encoding such a cache latches an error.
func (c *Cache) EncodeState(w *ckpt.Writer) {
	w.Mark("cache:" + c.name)
	if c.lruClock == nil {
		w.Failf("cache %q: non-LRU replacement state cannot be checkpointed", c.name)
		return
	}
	w.U64(uint64(c.sets))
	w.U64(uint64(c.ways))
	for s := 0; s < c.sets; s++ {
		w.Binary(c.tags(s))
	}
	w.Binary(c.entries())
	w.Bool(c.gens != nil)
	if c.gens != nil {
		w.Binary(c.gens)
	}
	w.Binary(c.live)
	w.Binary(c.dead)
	for s := 0; s < c.sets; s++ {
		w.Binary(c.stamps(s))
	}
	w.Binary(c.lruClock)
	w.U64(c.lookups)
	w.U64(c.hits)
	w.U64(c.fills)
	w.U64(c.bypasses)
	w.U64(c.evictions)
}

// v1Block is an entry as version-1 checkpoints (DPMK v1 and DPCK) record
// it: the 64-byte Block of earlier releases, field for field (57 bytes on
// the wire), which held the generation times itself.
type v1Block struct {
	Key, Data, FillTime, LastHitTime, Hits      uint64
	PCHash, Sig, AIPCount, AIPMax, AIPThreshold uint16
	Valid, Dirty, Accessed, DP, Prefetched      bool
	Outcome, AIPConf                            bool
}

// DecodeState restores state written by EncodeState into a cache built with
// the identical configuration; a stream of checkpoint version 1
// (r.Version) holds v1 entry records. Generation records the checkpoint
// carries but this cache does not track are dropped; a cache that tracks
// times refuses a checkpoint without them rather than restoring zeros. A
// tag-only cache keeps its mode unless an entry record holds more than a
// tag-only cache can (KeepPayload's rebuild would differ from it); then it
// keeps the payload, so decoding never loses a field.
func (c *Cache) DecodeState(r *ckpt.Reader) error {
	r.Expect("cache:" + c.name)
	if c.lruClock == nil {
		r.Failf("cache %q: non-LRU replacement state cannot be checkpointed", c.name)
		return r.Err()
	}
	if sets, ways := r.U64(), r.U64(); r.Err() == nil &&
		(sets != uint64(c.sets) || ways != uint64(c.ways)) {
		r.Failf("cache %q: checkpoint geometry %d×%d does not match configured %d×%d",
			c.name, sets, ways, c.sets, c.ways)
	}
	for s := 0; s < c.sets; s++ {
		r.Binary(c.tags(s))
	}
	blocks := c.blocks
	if blocks == nil {
		blocks = make([]Block, c.Capacity())
	}
	if r.Version() == 1 {
		c.decodeV1Entries(r, blocks)
	} else {
		r.Binary(blocks)
		if r.Bool() {
			gens := c.gens
			if gens == nil {
				gens = make([]Gen, len(blocks))
			}
			r.Binary(gens)
		} else if c.gens != nil {
			r.Failf("cache %q: checkpoint carries no entry times, which this machine tracks", c.name)
		}
	}
	if c.blocks == nil {
		c.storeEntries(blocks)
	}
	r.Binary(c.live)
	r.Binary(c.dead)
	for s := 0; s < c.sets; s++ {
		r.Binary(c.stamps(s))
	}
	r.Binary(c.lruClock)
	c.lookups = r.U64()
	c.hits = r.U64()
	c.fills = r.U64()
	c.bypasses = r.U64()
	c.evictions = r.U64()
	if r.Err() == nil {
		// Valid and dead bits name ways; a bit past the last way would
		// send a fill or victim search off the end of its set.
		for s := range c.live {
			if (c.live[s]|c.dead[s])&^c.fullMask != 0 {
				r.Failf("cache %q: checkpoint set %d marks ways past %d", c.name, s, c.ways)
				break
			}
		}
	}
	return r.Err()
}

// storeEntries puts decoded entry records into a tag-only cache: as hit
// counts when every record is one the cache can rebuild, else as payload.
func (c *Cache) storeEntries(blocks []Block) {
	for i, b := range blocks {
		c.counts[i] = b.Hits
		if c.entry(i) != b {
			c.blocks, c.counts = blocks, nil
			return
		}
	}
}

// decodeV1Entries reads v1 entry records into blocks and, when the cache
// tracks times, their generation records.
func (c *Cache) decodeV1Entries(r *ckpt.Reader, blocks []Block) {
	old := make([]v1Block, len(blocks))
	r.Binary(old)
	for i, o := range old {
		blocks[i] = Block{
			Key: o.Key, Data: o.Data,
			PCHash: o.PCHash, Sig: o.Sig,
			AIPCount: o.AIPCount, AIPMax: o.AIPMax, AIPThreshold: o.AIPThreshold,
			Hits:     addHits(0, o.Hits),
			Accessed: o.Accessed, DP: o.DP, Prefetched: o.Prefetched,
			Outcome: o.Outcome, AIPConf: o.AIPConf,
		}
		if c.gens != nil {
			c.gens[i] = Gen{FillTime: o.FillTime, LastHitTime: o.LastHitTime, Hits: o.Hits}
		}
	}
}
