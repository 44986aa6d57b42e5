package stats

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
)

// TestConfusionScenarios walks the three outcome classes through a tiny
// fully-associative mirror.
func TestConfusionScenarios(t *testing.T) {
	ct, err := NewConfusionTracker("llt", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	tick := func() uint64 { now++; return now }

	// Key 1: predicted dead, never touched again — true dead.
	ct.Access(1, true, tick())
	// Key 2: predicted dead but re-touched — premature.
	ct.Access(2, true, tick())
	ct.Access(2, false, tick()) // mirror hit, no new fill
	// Key 3: unpredicted and never re-touched — missed. Filling it evicts
	// key 1 (LRU victim: key 2 was just touched).
	ct.Access(3, false, tick())

	ct.Flush()
	got := ct.Counts()
	want := Confusion{TrueDead: 1, Premature: 1, Missed: 1}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	if got.Predicted() != 2 || got.ActualDead() != 2 {
		t.Fatalf("derived views wrong: %+v", got)
	}
	if got.PrematureRate() != 0.5 || got.CoverageRate() != 0.5 {
		t.Fatalf("rates wrong: premature=%v coverage=%v", got.PrematureRate(), got.CoverageRate())
	}
}

// TestConfusionInvariants drives a deterministic pseudo-random access
// stream against the tracker and an independent reference model (a second
// cache walked the same way, classified by the test), checking both that
// the classes match and that the class identities hold: every prediction
// grades as true-dead or premature, every real death as true-dead or
// missed.
func TestConfusionInvariants(t *testing.T) {
	const sets, ways = 4, 2
	ct, err := NewConfusionTracker("llc", sets, ways, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cache.New(cache.Config{Name: "ref", Sets: sets, Ways: ways})
	if err != nil {
		t.Fatal(err)
	}

	var want Confusion
	var predictedFills, deaths uint64
	grade := func(b cache.Block) {
		dead := b.Hits == 0
		if dead {
			deaths++
		}
		switch {
		case b.DP && dead:
			want.TrueDead++
		case b.DP:
			want.Premature++
		case dead:
			want.Missed++
		}
	}

	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	for i := 0; i < 50_000; i++ {
		r := next()
		key := r % 64 // working set 2× the mirror, so evictions are constant
		predicted := r&0x300 == 0
		now := uint64(i)

		ct.Access(key, predicted, now)

		if _, ok := ref.Lookup(key, now); !ok {
			nb, victim, evicted := ref.Fill(key, policy.InsertMRU, now)
			nb.DP = predicted
			if predicted {
				predictedFills++
			}
			if evicted {
				grade(victim)
			}
		}
	}
	ct.Flush()
	var resident []cache.Block
	ref.ForEach(func(_, _ int, b *cache.Block) { resident = append(resident, *b) })
	for _, b := range resident {
		grade(b)
	}

	got := ct.Counts()
	if got != want {
		t.Fatalf("tracker = %+v, reference = %+v", got, want)
	}
	if got.Predicted() != predictedFills {
		t.Fatalf("TrueDead+Premature = %d, want the %d predicted fills", got.Predicted(), predictedFills)
	}
	if got.ActualDead() != deaths {
		t.Fatalf("TrueDead+Missed = %d, want the %d real deaths", got.ActualDead(), deaths)
	}
	if got.TrueDead == 0 || got.Premature == 0 || got.Missed == 0 {
		t.Fatalf("degenerate stream, some class never exercised: %+v", got)
	}
}

// TestConfusionDelta: interval emission subtracts per class.
func TestConfusionDelta(t *testing.T) {
	prev := Confusion{TrueDead: 5, Premature: 2, Missed: 10}
	cur := Confusion{TrueDead: 8, Premature: 2, Missed: 14}
	d := cur.Delta(prev)
	if d != (Confusion{TrueDead: 3, Premature: 0, Missed: 4}) {
		t.Fatalf("Delta = %+v", d)
	}
	if zero := (Confusion{}); zero.PrematureRate() != 0 || zero.CoverageRate() != 0 {
		t.Fatal("zero-value rates must be 0")
	}
}
