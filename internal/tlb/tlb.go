// Package tlb implements the translation-lookaside buffers of the simulated
// machine: the split L1 I/D TLBs and the unified L2 TLB — the paper's
// last-level TLB (LLT). A TLB is a thin, typed wrapper over the generic
// set-associative structure in internal/cache, mapping virtual page numbers
// to physical frame numbers and carrying the per-entry metadata dpPred
// needs (the Accessed bit and a small hash of the filling PC, §V-A).
package tlb

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/pool"
)

// Config sizes a TLB.
type Config struct {
	// Name labels the TLB in reports ("L1D-TLB", "LLT", ...).
	Name string
	// Entries is the total entry count; must be a positive multiple of
	// Ways.
	Entries int
	// Ways is the associativity.
	Ways int
	// Latency is the lookup latency in cycles.
	Latency arch.Lat
	// Policy is the replacement policy; nil means LRU.
	Policy policy.Policy
	// Pool, when set, supplies the backing structure's arrays
	// (cache.Config.Pool).
	Pool *pool.Pool
}

// TLB caches virtual-to-physical page translations.
type TLB struct {
	c   *cache.Cache
	lat arch.Lat
}

// New builds a TLB from the configuration.
func New(cfg Config) (*TLB, error) {
	if cfg.Ways < 1 || cfg.Entries < cfg.Ways || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("tlb %q: entries %d must be a positive multiple of ways %d",
			cfg.Name, cfg.Entries, cfg.Ways)
	}
	c, err := cache.New(cache.Config{
		Name:   cfg.Name,
		Sets:   cfg.Entries / cfg.Ways,
		Ways:   cfg.Ways,
		Policy: cfg.Policy,
		Pool:   cfg.Pool,
	})
	if err != nil {
		return nil, err
	}
	return &TLB{c: c, lat: cfg.Latency}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Latency returns the lookup latency.
func (t *TLB) Latency() arch.Lat { return t.lat }

// Entries returns the total capacity.
func (t *TLB) Entries() int { return t.c.Capacity() }

// Lookup translates vpn, returning the frame on a hit. The hit sets the
// entry's Accessed bit, exactly as Fig. 6a requires.
func (t *TLB) Lookup(vpn arch.VPN, now uint64) (arch.PFN, bool) {
	b, ok := t.c.Lookup(uint64(vpn), now)
	if !ok {
		return 0, false
	}
	return arch.PFN(b.Data), true
}

// Probe checks residency without updating replacement state or metadata.
func (t *TLB) Probe(vpn arch.VPN) (*cache.Block, bool) {
	return t.c.Probe(uint64(vpn))
}

// Fill installs a translation. pcHash is the hash of the PC that triggered
// the miss (recorded in the entry for dpPred's eviction-time update). The
// returned victim is the evicted entry, if any, and nb is the newly
// installed entry for further metadata updates (SHiP signatures etc.).
func (t *TLB) Fill(vpn arch.VPN, pfn arch.PFN, pcHash uint16, hint policy.InsertHint, now uint64) (nb *cache.Block, victim cache.Block, evicted bool) {
	nb, victim, evicted = t.c.Fill(uint64(vpn), hint, now)
	nb.Data = uint64(pfn)
	nb.PCHash = pcHash
	return nb, victim, evicted
}

// Install is a Fill at MRU with no PC hash whose victim is dropped
// unseen (the L1 TLBs' silent evictions); it skips copying the victim out.
func (t *TLB) Install(vpn arch.VPN, pfn arch.PFN, now uint64) {
	t.c.Install(uint64(vpn), policy.InsertMRU, now).Data = uint64(pfn)
}

// Invalidate drops a translation if present (used by tests and by shadow-
// table promotion paths).
func (t *TLB) Invalidate(vpn arch.VPN) (cache.Block, bool) {
	return t.c.Invalidate(uint64(vpn))
}

// FlushASID invalidates every entry whose key carries the given ASID tag
// (the key bits above arch.VPNBits; see sim's multi-tenant key layout) and
// returns how many entries were dropped. Entries of other address spaces
// are untouched — this is the precise shootdown an ASID-tagged TLB offers.
// Flushes are hardware invalidations, not replacement decisions: no
// predictor or sampler observes them.
func (t *TLB) FlushASID(asid uint64) int {
	return t.flushMatch(func(key uint64) bool { return key>>arch.VPNBits == asid })
}

// FlushAll invalidates every entry (the ASID-oblivious full-flush
// shootdown) and returns how many entries were dropped.
func (t *TLB) FlushAll() int {
	return t.flushMatch(func(uint64) bool { return true })
}

// flushMatch invalidates every entry whose key satisfies match, in
// deterministic set-major order. Keys are collected before any
// invalidation so the walk never mutates the structure it iterates.
func (t *TLB) flushMatch(match func(key uint64) bool) int {
	keys := make([]uint64, 0, 64)
	t.c.ForEach(func(_, _ int, b *cache.Block) {
		if match(b.Key) {
			keys = append(keys, b.Key)
		}
	})
	for _, k := range keys {
		t.c.Invalidate(k)
	}
	return len(keys)
}

// RecordBypass counts a fill suppressed by a predictor.
func (t *TLB) RecordBypass() { t.c.RecordBypass() }

// Inner exposes the backing structure for predictors, samplers and stats.
func (t *TLB) Inner() *cache.Cache { return t.c }

// Clone deep-copies the TLB (contents, replacement state, statistics) for
// warm-state forking; the copy shares no mutable state with the original.
func (t *TLB) Clone() (*TLB, error) {
	c, err := t.c.Clone()
	if err != nil {
		return nil, err
	}
	return &TLB{c: c, lat: t.lat}, nil
}

// Release returns the TLB's storage to its pool; any later use panics
// (cache.Cache.Release).
func (t *TLB) Release() { t.c.Release() }

// Stats returns the activity counters.
func (t *TLB) Stats() cache.Stats { return t.c.Stats() }

// ResetStats zeroes activity counters without dropping contents.
func (t *TLB) ResetStats() { t.c.ResetStats() }
