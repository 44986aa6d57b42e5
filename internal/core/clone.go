package core

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/pred"
)

// clone deep-copies the shadow table.
func (s *shadowTable) clone() *shadowTable {
	return &shadowTable{
		entries: append([]shadowEntry(nil), s.entries...),
		next:    s.next,
	}
}

// clone deep-copies the PFN filter queue.
func (q *pfq) clone() *pfq {
	return &pfq{
		frames: append([]arch.PFN(nil), q.frames...),
		valid:  append([]bool(nil), q.valid...),
		next:   q.next,
	}
}

// CloneTLB implements pred.ClonableTLB: a deep copy of pHIST (single
// contiguous backing, like NewDPPred builds), the shadow table and the
// counters. The tracer is deliberately left disconnected: forks always
// run without instrumentation.
func (p *DPPred) CloneTLB(*cache.Cache) (pred.TLBPredictor, error) {
	c := *p
	c.tr = nil
	c.shadow = p.shadow.clone()
	rows := len(p.phist)
	cols := 0
	if rows > 0 {
		cols = len(p.phist[0])
	}
	c.phist = make([][]uint8, rows)
	backing := make([]uint8, rows*cols)
	for r := range c.phist {
		copy(backing[r*cols:(r+1)*cols], p.phist[r])
		c.phist[r] = backing[r*cols : (r+1)*cols]
	}
	return &c, nil
}

// CloneLLC implements pred.ClonableLLC: a deep copy of bHIST and the PFQ.
// The tracer is left disconnected (forks run uninstrumented).
func (p *CBPred) CloneLLC(*cache.Cache) (pred.LLCPredictor, error) {
	c := *p
	c.tr = nil
	c.bhist = append([]uint8(nil), p.bhist...)
	c.q = p.q.clone()
	return &c, nil
}

var (
	_ pred.ClonableTLB = (*DPPred)(nil)
	_ pred.ClonableLLC = (*CBPred)(nil)
)
