// Package walker implements the hardware page-table walker and its
// page-walk caches (PWCs). Following the paper's methodology (§III): "Like
// real hardware, we use page walk caches (PWCs) to cache partial
// translations to reduce the number of accesses on a page walk to 1 to 3
// memory accesses (on a hit to PWC). Therefore, the page walk latency is
// variable – it depends upon hits/misses to PWCs and whether the page table
// accesses hit in the data caches."
//
// The three PWC levels cache partial translations at the three interior
// radix levels:
//
//	PWC1 (4 entries, 1 cycle)  – PDE entries;   a hit leaves 1 PTE fetch
//	PWC2 (8 entries, 1 cycle)  – PDPTE entries; a hit leaves 2 fetches
//	PWC3 (16 entries, 2 cycles)– PML4E entries; a hit leaves 3 fetches
//
// Every remaining PTE fetch is issued serially (a radix walk is pointer
// chasing) through the data-cache hierarchy via the Fetch callback.
package walker

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/pagetable"
	"repro/internal/pool"
)

// PWCLevels is the number of page-walk-cache levels.
const PWCLevels = 3

// Config sizes the walker.
type Config struct {
	// PWCEntries are the entry counts for PWC1..PWC3 (fully
	// associative). Zero entries disable that level.
	PWCEntries [PWCLevels]int
	// PWCLatency are the lookup latencies for PWC1..PWC3.
	PWCLatency [PWCLevels]arch.Lat
	// Pool, when set, supplies the PWCs' arrays (cache.Config.Pool).
	Pool *pool.Pool
}

// DefaultConfig returns the paper's Table I PWC configuration.
func DefaultConfig() Config {
	return Config{
		PWCEntries: [PWCLevels]int{4, 8, 16},
		PWCLatency: [PWCLevels]arch.Lat{1, 1, 2},
	}
}

// Fetch retrieves one page-table entry through the memory hierarchy and
// returns the access latency.
type Fetch func(pa arch.PAddr) arch.Lat

// Stats counts walker activity.
type Stats struct {
	// Walks is the number of completed page walks.
	Walks uint64
	// PTAccesses is the total number of PTE fetches issued.
	PTAccesses uint64
	// PWCHits counts hits per PWC level (index 0 = PWC1/PDE).
	PWCHits [PWCLevels]uint64
	// FullWalks counts walks that missed in every PWC (4 fetches).
	FullWalks uint64
	// WalkCycles is the summed latency of all walks (PWC lookups plus
	// PTE fetches), before any queueing at the walker.
	WalkCycles uint64
}

// Walker performs page walks against a page table.
type Walker struct {
	pt    *pagetable.PageTable
	fetch Fetch
	pwc   [PWCLevels]*cache.Cache
	lat   [PWCLevels]arch.Lat

	steps []pagetable.Step // reused across walks
	stats Stats
	tick  uint64
}

// New builds a walker. fetch must not be nil.
func New(pt *pagetable.PageTable, cfg Config, fetch Fetch) (*Walker, error) {
	if pt == nil {
		return nil, fmt.Errorf("walker: nil page table")
	}
	if fetch == nil {
		return nil, fmt.Errorf("walker: nil fetch callback")
	}
	w := &Walker{pt: pt, fetch: fetch, lat: cfg.PWCLatency}
	for i, n := range cfg.PWCEntries {
		if n < 0 {
			return nil, fmt.Errorf("walker: PWC%d entries %d < 0", i+1, n)
		}
		if n == 0 {
			continue
		}
		c, err := cache.New(cache.Config{
			Name:    fmt.Sprintf("PWC%d", i+1),
			Sets:    1,
			Ways:    n,
			TagOnly: true, // residency is all a walk reads
			Pool:    cfg.Pool,
		})
		if err != nil {
			return nil, err
		}
		w.pwc[i] = c
	}
	return w, nil
}

// pwcKey returns the lookup key for PWC level i (0 = PDE, covering 2 MB
// regions; 2 = PML4E, covering 512 GB regions).
func pwcKey(vpn arch.VPN, level int) uint64 {
	shift := uint((level + 1) * arch.RadixIndexBits)
	return uint64(vpn) >> shift
}

// Result describes one completed walk.
type Result struct {
	// PFN is the translated frame.
	PFN arch.PFN
	// Latency is the full walk latency: PWC lookups plus the serial PTE
	// fetch latencies.
	Latency arch.Lat
	// PTAccesses is how many PTE fetches the walk issued (1–4).
	PTAccesses int
}

// Walk translates vpn, allocating the mapping on first touch, and returns
// the walk result. It consults the PWCs from the deepest-coverage level
// (PDE) outward, fetches the remaining PTEs serially through the memory
// hierarchy, and refills all PWC levels it traversed.
func (w *Walker) Walk(vpn arch.VPN) (Result, error) {
	w.tick++
	w.stats.Walks++

	pfn, steps, err := w.pt.Translate(vpn, w.steps[:0])
	if err != nil {
		return Result{}, err
	}
	w.steps = steps

	// Find the deepest PWC hit. PWC level i caches the node reached
	// after consuming (RadixLevels-1-i) levels, i.e. a PWC1/PDE hit
	// means only the leaf PTE (step index 3) remains.
	firstStep := 0
	hitLevel := -1
	var pwcLat arch.Lat
	for i := 0; i < PWCLevels; i++ {
		if w.pwc[i] == nil {
			continue
		}
		pwcLat = w.lat[i]
		if _, ok := w.pwc[i].Lookup(pwcKey(vpn, i), w.tick); ok {
			w.stats.PWCHits[i]++
			firstStep = arch.RadixLevels - 1 - i
			hitLevel = i
			break
		}
		if i == PWCLevels-1 {
			firstStep = 0 // full walk
			w.stats.FullWalks++
		}
	}
	if w.pwc[0] == nil && w.pwc[1] == nil && w.pwc[2] == nil {
		firstStep = 0
		w.stats.FullWalks++
		pwcLat = 0
	}

	total := pwcLat
	n := 0
	for _, s := range steps[firstStep:] {
		total += w.fetch(s.PTEAddr)
		n++
	}
	w.stats.PTAccesses += uint64(n)
	w.stats.WalkCycles += uint64(total)

	// Refill the PWCs for every interior level this walk resolved, so
	// future walks in the same region skip deeper. The level that just
	// hit is known-resident; probing it again would be redundant.
	for i := 0; i < PWCLevels; i++ {
		if w.pwc[i] == nil || i == hitLevel {
			continue
		}
		key := pwcKey(vpn, i)
		if _, ok := w.pwc[i].Probe(key); !ok {
			w.pwc[i].Install(key, 0, w.tick)
		}
	}

	return Result{PFN: pfn, Latency: total, PTAccesses: n}, nil
}

// Clone deep-copies the walker for warm-state forking, rebinding it to the
// forked system's page table and PTE-fetch path (both belong to the new
// machine instance; the walker itself owns only the PWCs, its counters and
// its clock). The steps scratch buffer is per-instance and starts empty.
func (w *Walker) Clone(pt *pagetable.PageTable, fetch Fetch) (*Walker, error) {
	if pt == nil {
		return nil, fmt.Errorf("walker: clone needs a page table")
	}
	if fetch == nil {
		return nil, fmt.Errorf("walker: clone needs a fetch callback")
	}
	n := &Walker{pt: pt, fetch: fetch, lat: w.lat, stats: w.stats, tick: w.tick}
	for i, c := range w.pwc {
		if c == nil {
			continue
		}
		cc, err := c.Clone()
		if err != nil {
			return nil, err
		}
		n.pwc[i] = cc
	}
	return n, nil
}

// Rebind points the walker at a different page table (a context switch to
// another address space). PWC contents survive deliberately: their keys are
// derived from the (ASID-qualified) VPNs the owning address space walks, so
// entries of distinct address spaces can never collide — exactly like an
// ASID-tagged hardware PWC.
func (w *Walker) Rebind(pt *pagetable.PageTable) {
	w.pt = pt
}

// Release returns the PWCs' storage to their pool; any later walk that
// reaches a PWC panics (cache.Cache.Release).
func (w *Walker) Release() {
	for _, c := range w.pwc {
		if c != nil {
			c.Release()
		}
	}
}

// Stats returns a snapshot of walker counters.
func (w *Walker) Stats() Stats { return w.stats }

// ResetStats zeroes the counters (warmup) without dropping PWC contents.
func (w *Walker) ResetStats() { w.stats = Stats{} }
