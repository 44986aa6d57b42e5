package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/policy"
)

func TestAccuracyTrackerGrading(t *testing.T) {
	a, err := NewConfusionTracker("llt", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	tick := func() uint64 { now++; return now }

	// Fill key 1 predicted DOA, never touch it again; evict it with two
	// other fills → correct prediction + one true DOA.
	a.Access(1, true, tick())
	a.Access(2, false, tick())
	a.Access(3, false, tick()) // evicts 1 (LRU): DOA + predicted → correct
	r := a.Accuracy()
	if r.Correct != 1 || r.Wrong != 0 || r.TrueDOA != 1 {
		t.Fatalf("after first eviction: %+v", r)
	}

	// Fill key 4 predicted DOA but then hit it → wrong when evicted.
	a.Access(4, true, tick())  // evicts 2 (unpredicted, DOA → trueDOA)
	a.Access(4, false, tick()) // hit: 4 now has a hit
	a.Access(5, false, tick()) // evicts 3 (unpredicted DOA)
	a.Access(6, false, tick()) // evicts 4: predicted but hit → wrong
	r = a.Accuracy()
	if r.Correct != 1 || r.Wrong != 1 {
		t.Fatalf("final grading: %+v", r)
	}
	if r.TrueDOA != 3 {
		t.Fatalf("TrueDOA = %d, want 3 (keys 1,2,3)", r.TrueDOA)
	}
	if acc := r.Accuracy(); acc != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", acc)
	}
	if cov := r.Coverage(); math.Abs(cov-1.0/3) > 1e-12 {
		t.Errorf("Coverage = %v, want 1/3", cov)
	}
}

func TestAccuracyEmptyIsPerfect(t *testing.T) {
	r := AccuracyResult{}
	if r.Accuracy() != 1 {
		t.Error("no predictions should read as accuracy 1")
	}
	if r.Coverage() != 0 {
		t.Error("no DOAs should read as coverage 0")
	}
}

// Property: correct+wrong never exceeds the number of predicted fills, and
// trueDOA ≥ correct.
func TestAccuracyBoundsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a, err := NewConfusionTracker("p", 2, 2, nil)
		if err != nil {
			return false
		}
		predicted := uint64(0)
		for i, op := range ops {
			key := uint64(op % 16)
			p := op%3 == 0
			// Count only accesses that will fill (mirror miss).
			if _, hit := probe(a, key); !hit && p {
				predicted++
			}
			a.Access(key, p, uint64(i))
		}
		r := a.Accuracy()
		return r.Correct+r.Wrong <= predicted && r.Correct <= r.TrueDOA
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func probe(a *ConfusionTracker, key uint64) (*cache.Block, bool) {
	return a.mirror.Probe(key)
}

func TestDeadSamplerEvictionClassification(t *testing.T) {
	d := NewDeadSampler()
	// DOA: no hits.
	d.OnEvict(1, cache.Gen{FillTime: 0, Hits: 0}, 100)
	// Mostly dead: hit at t=10, evicted at t=100 → dead 90 > live 10.
	d.OnEvict(2, cache.Gen{FillTime: 0, LastHitTime: 10, Hits: 3}, 100)
	// Mostly live: hit at t=90, evicted at t=100 → dead 10 < live 90.
	d.OnEvict(3, cache.Gen{FillTime: 0, LastHitTime: 90, Hits: 5}, 100)
	r := d.Result()
	if r.DOA != 1 || r.MostlyDead != 1 || r.MostlyLive != 1 || r.Evictions != 3 {
		t.Fatalf("classification: %+v", r)
	}
	if got := r.DeadFrac(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("DeadFrac = %v, want 2/3", got)
	}
	if got := r.DOAFrac(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("DOAFrac = %v, want 1/3", got)
	}
}

// timedCache is a one-set cache that tracks entry times, as the samplers
// require.
func timedCache(t *testing.T, ways int) *cache.Cache {
	t.Helper()
	c := cache.MustNew(cache.Config{Name: "s", Sets: 1, Ways: ways})
	if err := c.TrackTimes(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDeadSamplerResidencySampling(t *testing.T) {
	c := timedCache(t, 2)
	d := NewDeadSampler()

	c.Fill(1, policy.InsertMRU, 0)
	c.Fill(2, policy.InsertMRU, 0)
	c.Lookup(1, 5) // 1 has a hit before the sample
	d.Sample(c)    // snapshot both
	c.Lookup(1, 6) // 1 hits again after the sample → live at sample
	// 2 never hits → dead at sample, and DOA.
	_, v1, _ := c.Fill(3, policy.InsertMRU, 10) // evicts 2 (LRU)
	d.OnEvict(v1.Key, c.EvictedGen(), 10)
	_, v2, _ := c.Fill(4, policy.InsertMRU, 11) // evicts 1
	d.OnEvict(v2.Key, c.EvictedGen(), 11)

	r := d.Result()
	if r.Samples != 2 {
		t.Fatalf("Samples = %d, want 2", r.Samples)
	}
	if r.DeadAtSample != 1 || r.DOAAtSample != 1 {
		t.Fatalf("dead/doa at sample = %d/%d, want 1/1", r.DeadAtSample, r.DOAAtSample)
	}
}

func TestDeadSamplerFinishResolvesResidents(t *testing.T) {
	c := timedCache(t, 2)
	d := NewDeadSampler()
	c.Fill(1, policy.InsertMRU, 0)
	d.Sample(c)
	// 1 never evicts; Finish must resolve the pending sample as dead.
	d.Finish(c)
	r := d.Result()
	if r.DeadAtSample != 1 || r.DOAAtSample != 1 {
		t.Errorf("Finish resolution: %+v", r)
	}
	if r.Evictions != 0 {
		t.Error("Finish must not add eviction classifications")
	}
}

func TestDeadSamplerGenerationsDoNotAlias(t *testing.T) {
	d := NewDeadSampler()
	c := timedCache(t, 1)
	c.Fill(7, policy.InsertMRU, 1)
	d.Sample(c)
	_, v, _ := c.Fill(8, policy.InsertMRU, 2) // evict 7 gen 1
	d.OnEvict(v.Key, c.EvictedGen(), 2)
	// Refill 7 at a later time: a new generation, fresh snapshot.
	_, v, _ = c.Fill(7, policy.InsertMRU, 3)
	d.OnEvict(v.Key, c.EvictedGen(), 3)
	d.Sample(c)
	c.Lookup(7, 4)
	_, v, _ = c.Fill(9, policy.InsertMRU, 5)
	d.OnEvict(v.Key, c.EvictedGen(), 5)
	r := d.Result()
	// Gen-1 sample: dead (DOA). Gen-2 sample: live (hit after sample).
	if r.DeadAtSample != 1 || r.DOAAtSample != 1 || r.Samples != 2 {
		t.Errorf("generation aliasing: %+v", r)
	}
}

func TestDOACorrelation(t *testing.T) {
	c := NewDOACorrelation()
	c.OnPageEvict(10, true)  // frame 10: DOA page
	c.OnPageEvict(20, false) // frame 20: live page
	c.OnBlockEvict(10, 0)    // DOA block on DOA page
	c.OnBlockEvict(10, 0)    // another
	c.OnBlockEvict(20, 0)    // DOA block on live page
	c.OnBlockEvict(20, 5)    // live block: not counted
	c.OnBlockEvict(30, 0)    // DOA block on unknown page
	r := c.Result()
	if r.DOABlocks != 4 || r.OnDOAPage != 2 || r.OnUnknownPage != 1 {
		t.Fatalf("result: %+v", r)
	}
	if got := r.Percent(); got != 50 {
		t.Errorf("Percent = %v, want 50", got)
	}
	if r.TotalEvictions != 5 {
		t.Errorf("TotalEvictions = %d, want 5", r.TotalEvictions)
	}
}

func TestDOACorrelationResidentClassification(t *testing.T) {
	c := NewDOACorrelation()
	c.OnPageResident(40, true)
	c.OnBlockEvict(40, 0)
	if r := c.Result(); r.OnDOAPage != 1 {
		t.Errorf("resident DOA page not honored: %+v", r)
	}
	// A later eviction record overrides nothing retroactively but
	// OnPageResident must not override an existing eviction record.
	c.OnPageEvict(50, false)
	c.OnPageResident(50, true)
	c.OnBlockEvict(50, 0)
	if r := c.Result(); r.OnDOAPage != 1 {
		t.Errorf("OnPageResident overrode an eviction record: %+v", r)
	}
}

func TestLastStatusWins(t *testing.T) {
	c := NewDOACorrelation()
	c.OnPageEvict(60, true)
	c.OnPageEvict(60, false) // page came back and was reused
	c.OnBlockEvict(60, 0)
	if r := c.Result(); r.OnDOAPage != 0 {
		t.Errorf("stale DOA status used: %+v", r)
	}
}

func TestFracZeroDenominator(t *testing.T) {
	if frac(5, 0) != 0 {
		t.Error("frac with zero denominator must be 0")
	}
	var r CorrelationResult
	if r.Percent() != 0 {
		t.Error("Percent with no DOA blocks must be 0")
	}
}
