// Distance-based TLB prefetching (Kandiraju & Sivasubramaniam, ISCA 2002),
// which the paper discusses as the strongest of the classic TLB-prefetch
// schemes (§VII: "distance-based prefetching gives the best performance
// for most workloads. However, prefetching does not perform well across
// all applications"). It is implemented here as an *extension* so that the
// bypass approach (dpPred) can be compared — and combined — with a
// prefetch approach on equal footing; see exp.ExtensionPrefetch.
//
// The predictor tracks the distance (in pages) between consecutive LLT
// misses. A distance table maps the previous distance to the distances
// that followed it historically; on a miss with distance d, the entries
// recorded under d are used to prefetch vpn+d' for each predicted next
// distance d'.
package pred

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/xhash"
)

// DistancePrefetcherConfig sizes the prefetcher.
type DistancePrefetcherConfig struct {
	// TableBits sizes the distance table (2^TableBits entries).
	TableBits uint
	// Ways is how many successor distances each entry remembers (and
	// thus the maximum prefetches per miss).
	Ways int
	// ContextBits sizes the context table that tracks the last miss per
	// address region (16 MB granularity), separating the interleaved
	// miss streams of distinct data structures. Without separation the
	// global distance sequence is garbage on multi-stream applications —
	// the failure mode Kandiraju & Sivasubramaniam report for naive
	// distance prefetching.
	ContextBits uint
	// DistanceBits is the stored distance width, for storage accounting.
	DistanceBits uint
}

// DefaultDistancePrefetcherConfig mirrors the classic configuration: a
// 256-entry, 2-way distance table with 64 PC contexts.
func DefaultDistancePrefetcherConfig() DistancePrefetcherConfig {
	return DistancePrefetcherConfig{TableBits: 8, Ways: 2, ContextBits: 6, DistanceBits: 16}
}

// TLBPrefetcher produces prefetch candidates on LLT misses. The simulator
// installs returned translations (if mapped) into the LLT off the critical
// path, charging only page-walker occupancy.
type TLBPrefetcher interface {
	// Name identifies the prefetcher.
	Name() string
	// OnMiss observes a demand miss (with the PC that caused it) and
	// returns VPNs to prefetch.
	OnMiss(vpn arch.VPN, pc uint64) []arch.VPN
	// StorageBits reports state overhead in bits.
	StorageBits() uint64
}

// distEntry remembers the successor distances observed after a distance.
type distEntry struct {
	valid bool
	tag   int64
	next  []int64
	cur   int // round-robin replacement cursor
}

// missContext is the per-region state separating concurrent miss streams.
type missContext struct {
	lastVPN  arch.VPN
	lastDist int64
	started  bool
}

// DistancePrefetcher is the distance-table prefetcher.
type DistancePrefetcher struct {
	cfg   DistancePrefetcherConfig
	table []distEntry
	ctx   []missContext
	out   []arch.VPN // reused buffer
}

// NewDistancePrefetcher builds the prefetcher.
func NewDistancePrefetcher(cfg DistancePrefetcherConfig) (*DistancePrefetcher, error) {
	if cfg.TableBits == 0 || cfg.TableBits > 16 {
		return nil, fmt.Errorf("prefetch: TableBits must be in [1,16], got %d", cfg.TableBits)
	}
	if cfg.Ways < 1 || cfg.Ways > 8 {
		return nil, fmt.Errorf("prefetch: Ways must be in [1,8], got %d", cfg.Ways)
	}
	if cfg.ContextBits == 0 || cfg.ContextBits > 12 {
		return nil, fmt.Errorf("prefetch: ContextBits must be in [1,12], got %d", cfg.ContextBits)
	}
	p := &DistancePrefetcher{
		cfg:   cfg,
		table: make([]distEntry, 1<<cfg.TableBits),
		ctx:   make([]missContext, 1<<cfg.ContextBits),
		out:   make([]arch.VPN, 0, cfg.Ways),
	}
	return p, nil
}

// Name implements TLBPrefetcher.
func (p *DistancePrefetcher) Name() string { return "distance-prefetch" }

func (p *DistancePrefetcher) index(d int64) *distEntry {
	h := xhash.Fold(uint64(d), p.cfg.TableBits)
	return &p.table[h]
}

// regionShift maps VPNs to 16 MB context regions (2^12 pages).
const regionShift = 12

// OnMiss implements TLBPrefetcher. The PC is accepted for interface
// symmetry with the predictors; contexts are keyed by address region,
// which separates data-structure streams more reliably than instruction
// sites in loop nests with many memory operations.
func (p *DistancePrefetcher) OnMiss(vpn arch.VPN, _ uint64) []arch.VPN {
	p.out = p.out[:0]
	c := &p.ctx[xhash.Fold(uint64(vpn)>>regionShift, p.cfg.ContextBits)]
	if !c.started {
		c.started = true
		c.lastVPN = vpn
		return nil
	}
	dist := int64(vpn) - int64(c.lastVPN)
	c.lastVPN = vpn
	if dist == 0 {
		return nil
	}

	// Train: the previous distance led to this one.
	if c.lastDist != 0 {
		e := p.index(c.lastDist)
		if !e.valid || e.tag != c.lastDist {
			*e = distEntry{valid: true, tag: c.lastDist, next: make([]int64, 0, p.cfg.Ways)}
		}
		e.learn(dist, p.cfg.Ways)
	}
	c.lastDist = dist

	// Predict: what followed this distance before?
	e := p.index(dist)
	if e.valid && e.tag == dist {
		for _, d := range e.next {
			target := int64(vpn) + d
			if target > 0 {
				p.out = append(p.out, arch.VPN(target))
			}
		}
	}
	return p.out
}

// learn records a successor distance, keeping at most ways distinct values
// with round-robin replacement.
func (e *distEntry) learn(d int64, ways int) {
	for _, have := range e.next {
		if have == d {
			return
		}
	}
	if len(e.next) < ways {
		e.next = append(e.next, d)
		return
	}
	e.next[e.cur] = d
	e.cur = (e.cur + 1) % ways
}

// StorageBits implements TLBPrefetcher: the distance table (tag + ways ×
// distance + valid per entry) plus the per-PC contexts (VPN + distance).
func (p *DistancePrefetcher) StorageBits() uint64 {
	perEntry := uint64(p.cfg.DistanceBits) * (1 + uint64(p.cfg.Ways))
	table := uint64(len(p.table)) * (perEntry + 1)
	ctx := uint64(len(p.ctx)) * (arch.VPNBits + uint64(p.cfg.DistanceBits) + 1)
	return table + ctx
}

var _ TLBPrefetcher = (*DistancePrefetcher)(nil)
