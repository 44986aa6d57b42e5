package stats

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
)

func TestAccuracyTrackerWithSRRIPMirror(t *testing.T) {
	a, err := NewConfusionTracker("llt", 2, 2, policy.SRRIP{})
	if err != nil {
		t.Fatal(err)
	}
	// Exercise the SRRIP-backed mirror: fill past capacity and make sure
	// grading still happens.
	for i := uint64(0); i < 64; i++ {
		a.Access(i, i%2 == 0, i)
	}
	r := a.Accuracy()
	if r.TrueDOA == 0 {
		t.Error("no true DOAs graded under an SRRIP mirror")
	}
	if r.Correct+r.Wrong == 0 {
		t.Error("no predictions graded under an SRRIP mirror")
	}
}

func TestAccuracyTrackerRepeatedKeyIsHit(t *testing.T) {
	a, err := NewConfusionTracker("llt", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Access(1, true, 0)
	// Re-access: hits the mirror, so the entry is no longer DOA.
	a.Access(1, false, 1)
	a.Access(2, false, 2)
	a.Access(3, false, 3) // evicts 1: predicted but hit → wrong
	r := a.Accuracy()
	if r.Wrong != 1 || r.Correct != 0 {
		t.Errorf("grading = %+v, want one wrong prediction", r)
	}
}

func TestAccuracyTrackerBadGeometry(t *testing.T) {
	if _, err := NewConfusionTracker("x", 0, 2, nil); err == nil {
		t.Error("zero sets accepted")
	}
}

func TestDeadSamplerSampleOfEmptyCache(t *testing.T) {
	d := NewDeadSampler()
	// Sampling and finishing empty structures must be harmless.
	empty := cacheMust(1, 1)
	d.Sample(empty)
	d.Finish(empty)
	if r := d.Result(); r.Samples != 0 {
		t.Errorf("samples = %d, want 0", r.Samples)
	}
}

// cacheMust builds a small structure for sampler edge cases.
func cacheMust(sets, ways int) *cache.Cache {
	return cache.MustNew(cache.Config{Name: "t", Sets: sets, Ways: ways})
}
