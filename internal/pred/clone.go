package pred

import (
	"repro/internal/arch"
	"repro/internal/cache"
)

// ClonableTLB is implemented by TLB predictors whose state can be deep-
// copied for warm-state forking. The forked system passes its own LLT
// backing structure so predictors that hold a pointer to the guarded
// structure (AIP) rebind to the clone rather than aliasing the original.
//
// The two-pass oracle and its recorder deliberately do not implement it:
// their record/replay protocol is tied to a single cold run. The oracle
// saves its extra pass another way: the record pass is the baseline
// machine's run, so exp.Runner shares it with the baseline cell.
type ClonableTLB interface {
	CloneTLB(llt *cache.Cache) (TLBPredictor, error)
}

// ClonableLLC is the LLC-side counterpart of ClonableTLB.
type ClonableLLC interface {
	CloneLLC(llc *cache.Cache) (LLCPredictor, error)
}

// CloneTLB implements ClonableTLB; the null predictor is stateless.
func (p NullTLB) CloneTLB(*cache.Cache) (TLBPredictor, error) { return p, nil }

// CloneLLC implements ClonableLLC; the null predictor is stateless.
func (p NullLLC) CloneLLC(*cache.Cache) (LLCPredictor, error) { return p, nil }

// clone deep-copies the SHCT.
func (s *ship) clone() *ship {
	c := *s
	c.shct = append([]uint8(nil), s.shct...)
	return &c
}

// CloneTLB implements ClonableTLB.
func (s *SHiPTLB) CloneTLB(*cache.Cache) (TLBPredictor, error) {
	return &SHiPTLB{ship: s.ship.clone()}, nil
}

// CloneLLC implements ClonableLLC.
func (s *SHiPLLC) CloneLLC(*cache.Cache) (LLCPredictor, error) {
	return &SHiPLLC{ship: s.ship.clone()}, nil
}

// clone deep-copies the prediction table and rebinds the guarded structure.
func (a *aip) clone(target *cache.Cache) *aip {
	c := *a
	c.target = target
	rows := len(a.table)
	cols := len(a.table[0])
	c.table = make([][]aipEntry, rows)
	backing := make([]aipEntry, rows*cols)
	for r := range c.table {
		copy(backing[r*cols:(r+1)*cols], a.table[r])
		c.table[r] = backing[r*cols : (r+1)*cols]
	}
	return &c
}

// CloneTLB implements ClonableTLB: the copy guards the forked LLT.
func (a *AIPTLB) CloneTLB(llt *cache.Cache) (TLBPredictor, error) {
	return &AIPTLB{aip: a.aip.clone(llt)}, nil
}

// CloneLLC implements ClonableLLC: the copy guards the forked LLC.
func (a *AIPLLC) CloneLLC(llc *cache.Cache) (LLCPredictor, error) {
	return &AIPLLC{aip: a.aip.clone(llc)}, nil
}

// Clone deep-copies the prefetcher (distance table with per-entry successor
// slices, miss contexts, counters) for warm-state forking.
func (p *DistancePrefetcher) Clone() *DistancePrefetcher {
	c := *p
	c.table = make([]distEntry, len(p.table))
	for i, e := range p.table {
		c.table[i] = e
		c.table[i].next = append([]int64(nil), e.next...)
	}
	c.ctx = append([]missContext(nil), p.ctx...)
	c.out = make([]arch.VPN, 0, cap(p.out))
	return &c
}

var (
	_ ClonableTLB = NullTLB{}
	_ ClonableLLC = NullLLC{}
	_ ClonableTLB = (*SHiPTLB)(nil)
	_ ClonableLLC = (*SHiPLLC)(nil)
	_ ClonableTLB = (*AIPTLB)(nil)
	_ ClonableLLC = (*AIPLLC)(nil)
)
