package policy

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewByName(t *testing.T) {
	for _, name := range []string{"LRU", "SRRIP", "FIFO", "Random", "lru", "srrip"} {
		p, err := byName(name)
		if err != nil {
			t.Fatalf("byName(%q): %v", name, err)
		}
		if p.NewSet(4) == nil {
			t.Fatalf("byName(%q).NewSet returned nil", name)
		}
	}
	if _, err := byName("PLRU"); err == nil {
		t.Error("byName(PLRU) should fail")
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	s := LRU{}.NewSet(4)
	for w := 0; w < 4; w++ {
		s.Insert(w, InsertMRU)
	}
	s.Touch(0)
	s.Touch(2)
	// Way 1 was filled before way 3 and never touched again.
	if v := s.Victim(); v != 1 {
		t.Errorf("Victim = %d, want 1", v)
	}
	s.Touch(1)
	if v := s.Victim(); v != 3 {
		t.Errorf("Victim = %d, want 3", v)
	}
}

func TestLRUInsertDistantIsNextVictim(t *testing.T) {
	s := LRU{}.NewSet(8)
	for w := 0; w < 8; w++ {
		s.Insert(w, InsertMRU)
	}
	s.Insert(5, InsertDistant)
	if v := s.Victim(); v != 5 {
		t.Errorf("Victim after distant insert = %d, want 5", v)
	}
	// A touch rescues it.
	s.Touch(5)
	if v := s.Victim(); v == 5 {
		t.Error("touched way must not remain the victim")
	}
}

func TestLRUInsertDistantUnderflow(t *testing.T) {
	s := LRU{}.NewSet(2)
	s.Invalidate(0) // stamp 0
	s.Insert(1, InsertDistant)
	if v := s.Victim(); v != 1 {
		t.Errorf("Victim = %d, want 1 (distant insert below stamp 0)", v)
	}
}

func TestLRUInvalidateBecomesVictim(t *testing.T) {
	s := LRU{}.NewSet(4)
	for w := 0; w < 4; w++ {
		s.Insert(w, InsertMRU)
	}
	s.Invalidate(3)
	if v := s.Victim(); v != 3 {
		t.Errorf("Victim = %d, want invalidated way 3", v)
	}
}

func TestSRRIPPromotionAndAging(t *testing.T) {
	s := SRRIP{}.NewSet(2)
	s.Insert(0, InsertMRU) // RRPV 2
	s.Insert(1, InsertMRU) // RRPV 2
	s.Touch(0)             // RRPV 0
	// Aging should push way 1 to RRPV 3 first.
	if v := s.Victim(); v != 1 {
		t.Errorf("Victim = %d, want 1", v)
	}
}

func TestSRRIPDistantInsert(t *testing.T) {
	s := SRRIP{}.NewSet(4)
	for w := 0; w < 4; w++ {
		s.Insert(w, InsertMRU)
	}
	s.Insert(2, InsertDistant)
	if v := s.Victim(); v != 2 {
		t.Errorf("Victim = %d, want distant-inserted way 2", v)
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	s := FIFO{}.NewSet(3)
	s.Insert(0, InsertMRU)
	s.Insert(1, InsertMRU)
	s.Insert(2, InsertMRU)
	s.Touch(0)
	s.Touch(0)
	if v := s.Victim(); v != 0 {
		t.Errorf("Victim = %d, want 0 (FIFO ignores hits)", v)
	}
	s.Insert(0, InsertMRU) // refill way 0
	if v := s.Victim(); v != 1 {
		t.Errorf("Victim = %d, want 1", v)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random{Seed: 42}.NewSet(8)
	b := Random{Seed: 42}.NewSet(8)
	for i := 0; i < 100; i++ {
		if a.Victim() != b.Victim() {
			t.Fatal("same-seed Random sets diverged")
		}
	}
}

func TestRandomZeroSeed(t *testing.T) {
	s := Random{}.NewSet(4)
	if v := s.Victim(); v < 0 || v >= 4 {
		t.Errorf("Victim = %d out of range", v)
	}
}

// Property: every policy returns victims in range whatever the operation
// sequence.
func TestVictimInRangeProperty(t *testing.T) {
	policies := []Policy{LRU{}, SRRIP{}, FIFO{}, Random{Seed: 7}}
	for _, p := range policies {
		p := p
		f := func(ops []uint8, waysRaw uint8) bool {
			ways := int(waysRaw%15) + 1
			s := p.NewSet(ways)
			for _, op := range ops {
				way := int(op) % ways
				switch op % 4 {
				case 0:
					s.Touch(way)
				case 1:
					s.Insert(way, InsertMRU)
				case 2:
					s.Insert(way, InsertDistant)
				case 3:
					s.Invalidate(way)
				}
				if v := s.Victim(); v < 0 || v >= ways {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// Property: under LRU, touching a way means it is never the immediate
// victim unless it is the only way.
func TestLRUTouchProtectsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const ways = 4
		s := LRU{}.NewSet(ways)
		for _, op := range ops {
			s.Insert(int(op)%ways, InsertMRU)
		}
		for w := 0; w < ways; w++ {
			s.Touch(w)
			if s.Victim() == w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// byName returns the policy with the given name: the package's policies
// and the FIFO and Random reference policies below.
func byName(name string) (Policy, error) {
	switch name {
	case "LRU", "lru":
		return LRU{}, nil
	case "SRRIP", "srrip":
		return SRRIP{}, nil
	case "FIFO", "fifo":
		return FIFO{}, nil
	case "Random", "random":
		return Random{Seed: 1}, nil
	case "DIP", "dip":
		// A fresh instance per call: DIP carries shared dueling state
		// and must not be reused across structures.
		return NewDIP(), nil
	}
	return nil, fmt.Errorf("policy: unknown replacement policy %q", name)
}

// FIFO replaces ways in insertion order, ignoring hits: a reference policy
// the property tests run beside the package's own.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// NewSet implements Policy.
func (FIFO) NewSet(ways int) Set {
	s := &fifoSet{order: make([]uint64, ways)}
	for i := range s.order {
		s.order[i] = uint64(i)
	}
	s.clock = uint64(ways)
	return s
}

type fifoSet struct {
	order []uint64
	clock uint64
}

func (s *fifoSet) Touch(int) {}

func (s *fifoSet) Insert(way int, _ InsertHint) {
	s.clock++
	s.order[way] = s.clock
}

func (s *fifoSet) Victim() int {
	victim := 0
	for i := 1; i < len(s.order); i++ {
		if s.order[i] < s.order[victim] {
			victim = i
		}
	}
	return victim
}

func (s *fifoSet) Invalidate(way int) { s.order[way] = 0 }

// CloneSet implements SetCloner.
func (s *fifoSet) CloneSet(map[any]any) Set {
	return &fifoSet{order: append([]uint64(nil), s.order...), clock: s.clock}
}

// Random picks victims with a per-set xorshift64 generator, seeded
// deterministically: another reference policy for the property tests.
type Random struct {
	// Seed perturbs every per-set generator; zero is replaced by one.
	Seed uint64
}

// Name implements Policy.
func (Random) Name() string { return "Random" }

// NewSet implements Policy.
func (r Random) NewSet(ways int) Set {
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	return &randomSet{ways: ways, state: seed}
}

type randomSet struct {
	ways  int
	state uint64
}

func (s *randomSet) Touch(int)              {}
func (s *randomSet) Insert(int, InsertHint) {}
func (s *randomSet) Invalidate(int)         {}

func (s *randomSet) Victim() int {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return int(s.state % uint64(s.ways))
}

// CloneSet implements SetCloner.
func (s *randomSet) CloneSet(map[any]any) Set {
	c := *s
	return &c
}
