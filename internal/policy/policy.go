// Package policy implements the replacement policies used by the simulated
// TLBs and caches: LRU (the paper's baseline), SRRIP (used in the Fig. 11f
// sensitivity study) and DIP with its set-dueling monitor.
//
// A Policy is a factory producing independent per-set state. The cache owns
// validity: it always prefers an invalid way, so a Set only ranks valid
// ways. Insertion takes a hint so that predictors such as SHiP can demote
// blocks predicted to have a distant re-reference interval (inserted at the
// LRU position under LRU, or with RRPV=3 under SRRIP, exactly as §VI-A
// adapts SHiP to an LRU baseline).
package policy

// InsertHint tells the policy where a newly filled block should start.
type InsertHint int

const (
	// InsertMRU is the default insertion for a demand fill.
	InsertMRU InsertHint = iota
	// InsertDistant inserts the block as the next replacement candidate
	// (LRU position / RRPV=3), used for predicted-dead insertions.
	InsertDistant
)

// Set tracks replacement state for the ways of a single set.
type Set interface {
	// Touch records a hit on the given way.
	Touch(way int)
	// Insert records a fill into the given way with the given hint.
	Insert(way int, hint InsertHint)
	// Victim returns the way the policy would replace next. It must
	// return a value in [0, ways).
	Victim() int
	// Invalidate forgets any state for the way (back-invalidation).
	Invalidate(way int)
}

// Policy creates per-set replacement state.
type Policy interface {
	// Name identifies the policy in reports ("LRU", "SRRIP", ...).
	Name() string
	// NewSet returns replacement state for a set with the given ways.
	NewSet(ways int) Set
}

// LRU is the least-recently-used policy (the paper's baseline everywhere).
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "LRU" }

// NewSet implements Policy.
func (LRU) NewSet(ways int) Set {
	s := &lruSet{stamp: make([]uint64, ways)}
	// Start with distinct stamps so Victim is well defined before fills.
	for i := range s.stamp {
		s.stamp[i] = uint64(i)
	}
	s.clock = uint64(ways)
	return s
}

type lruSet struct {
	stamp []uint64 // most recent use time per way; smallest is LRU
	clock uint64
}

func (s *lruSet) Touch(way int) {
	s.clock++
	s.stamp[way] = s.clock
}

func (s *lruSet) Insert(way int, hint InsertHint) {
	if hint == InsertDistant {
		// Become the immediate next victim: older than everything.
		min := s.stamp[0]
		for _, st := range s.stamp[1:] {
			if st < min {
				min = st
			}
		}
		if min == 0 {
			// Shift everything up to make room below.
			for i := range s.stamp {
				s.stamp[i]++
			}
			s.clock++
			min = 1
		}
		s.stamp[way] = min - 1
		return
	}
	s.Touch(way)
}

func (s *lruSet) Victim() int {
	victim := 0
	for i, st := range s.stamp[1:] {
		if st < s.stamp[victim] {
			victim = i + 1
		}
	}
	return victim
}

func (s *lruSet) Invalidate(way int) {
	// An invalidated way becomes the best victim.
	s.stamp[way] = 0
}

// SRRIP implements static re-reference interval prediction with 2-bit
// RRPVs (Jaleel et al., ISCA 2010): fills insert with a long re-reference
// prediction (RRPV=2), hits promote to RRPV=0, and the victim is the first
// way with RRPV=3 (aging all ways until one exists).
type SRRIP struct{}

// Name implements Policy.
func (SRRIP) Name() string { return "SRRIP" }

// NewSet implements Policy.
func (SRRIP) NewSet(ways int) Set {
	s := &srripSet{rrpv: make([]uint8, ways)}
	for i := range s.rrpv {
		s.rrpv[i] = rrpvMax // empty ways are perfect victims
	}
	return s
}

const rrpvMax = 3

type srripSet struct {
	rrpv []uint8
}

func (s *srripSet) Touch(way int) { s.rrpv[way] = 0 }

func (s *srripSet) Insert(way int, hint InsertHint) {
	if hint == InsertDistant {
		s.rrpv[way] = rrpvMax
		return
	}
	s.rrpv[way] = rrpvMax - 1
}

func (s *srripSet) Victim() int {
	for {
		for i, v := range s.rrpv {
			if v == rrpvMax {
				return i
			}
		}
		for i := range s.rrpv {
			s.rrpv[i]++
		}
	}
}

func (s *srripSet) Invalidate(way int) { s.rrpv[way] = rrpvMax }
