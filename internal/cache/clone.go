package cache

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/pool"
)

// Clone returns a deep copy of the cache in its storage mode: contents,
// generation records, packed valid/dead bit words, replacement state and
// statistics. The clone shares no mutable
// state with the original, so both can be stepped independently — the
// foundation of warm-state forking (one warmed structure, many consumers).
// It draws its arrays from the original's pool, every one overwritten by
// the copy.
//
// Non-LRU replacement state must implement policy.SetCloner; otherwise the
// clone would alias live per-set state and Clone fails loudly.
func (c *Cache) Clone() (*Cache, error) {
	n := &Cache{
		name:      c.name,
		sets:      c.sets,
		ways:      c.ways,
		setMask:   c.setMask,
		pow2:      c.pow2,
		fullMask:  c.fullMask,
		rec:       pool.Clone(c.pool, c.rec),
		stride:    c.stride,
		blocks:    pool.Clone(c.pool, c.blocks),
		counts:    pool.Clone(c.pool, c.counts),
		gens:      pool.Clone(c.pool, c.gens),
		live:      pool.Clone(c.pool, c.live),
		dead:      pool.Clone(c.pool, c.dead),
		pool:      c.pool,
		lookups:   c.lookups,
		hits:      c.hits,
		fills:     c.fills,
		bypasses:  c.bypasses,
		evictions: c.evictions,
	}
	if c.lruClock != nil {
		n.lruClock = pool.Clone(c.pool, c.lruClock)
		return n, nil
	}
	n.repl = make([]policy.Set, len(c.repl))
	shared := make(map[any]any)
	for i, s := range c.repl {
		sc, ok := s.(policy.SetCloner)
		if !ok {
			return nil, fmt.Errorf("cache %q: replacement state %T is not cloneable", c.name, s)
		}
		n.repl[i] = sc.CloneSet(shared)
	}
	return n, nil
}
