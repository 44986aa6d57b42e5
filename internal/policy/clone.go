package policy

// SetCloner is implemented by per-set replacement state that can be deep-
// copied for warm-state forking. The shared map deduplicates state that
// multiple sets of one structure deliberately share (DIP's PSEL counter):
// the first set to clone a shared value registers the copy under the
// original pointer, and later sets reuse it, preserving the sharing
// topology in the clone. Callers pass one map per cloned structure.
//
// All built-in policies implement it; a custom policy that does not is
// rejected by cache.Clone with an error rather than silently aliased.
type SetCloner interface {
	CloneSet(shared map[any]any) Set
}

// CloneSet implements SetCloner.
func (s *lruSet) CloneSet(map[any]any) Set {
	c := &lruSet{stamp: append([]uint64(nil), s.stamp...), clock: s.clock}
	return c
}

// CloneSet implements SetCloner.
func (s *srripSet) CloneSet(map[any]any) Set {
	return &srripSet{rrpv: append([]uint8(nil), s.rrpv...)}
}

// CloneSet implements SetCloner. All sets of one DIP-managed structure
// share a single duel/PSEL state; the shared map keeps that topology:
// exactly one dipState copy is made per structure clone.
func (s *dipSet) CloneSet(shared map[any]any) Set {
	st, ok := shared[s.st].(*dipState)
	if !ok {
		c := *s.st
		st = &c
		shared[s.st] = st
	}
	return &dipSet{
		lru:  s.lru.CloneSet(shared).(*lruSet),
		role: s.role,
		st:   st,
	}
}

var (
	_ SetCloner = (*lruSet)(nil)
	_ SetCloner = (*srripSet)(nil)
	_ SetCloner = (*dipSet)(nil)
)
