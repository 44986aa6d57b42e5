package stats

import (
	"repro/internal/cache"
	"repro/internal/policy"
)

// Confusion tallies fill-time dead predictions against ground truth. It
// refines AccuracyResult: instead of two buckets (correct/wrong) it
// classifies every graded outcome into the three the paper's risk
// analysis needs:
//
//   - TrueDead:  predicted dead, and the entry really saw no further use.
//   - Premature: predicted dead, but the entry was re-touched afterwards —
//     the paper's key failure mode (a premature prediction costs a full
//     TLB miss plus a page walk, §V-A).
//   - Missed:    the entry died unpredicted (a coverage miss).
//
// Invariants: TrueDead+Premature == Predicted (every prediction is graded
// exactly once), TrueDead+Missed == ActualDead (every real death is
// classified exactly once).
type Confusion struct {
	TrueDead  uint64 `json:"true_dead"`
	Premature uint64 `json:"premature"`
	Missed    uint64 `json:"missed"`
}

// Predicted returns the number of graded dead predictions.
func (c Confusion) Predicted() uint64 { return c.TrueDead + c.Premature }

// ActualDead returns the number of entries that really died unused.
func (c Confusion) ActualDead() uint64 { return c.TrueDead + c.Missed }

// PrematureRate returns Premature/Predicted — the fraction of dead
// predictions that evicted a translation or block still in use. 0 when
// nothing was predicted (an idle predictor is never premature).
func (c Confusion) PrematureRate() float64 {
	if p := c.Predicted(); p > 0 {
		return float64(c.Premature) / float64(p)
	}
	return 0
}

// CoverageRate returns TrueDead/ActualDead — the fraction of real deaths
// the predictor caught.
func (c Confusion) CoverageRate() float64 {
	if d := c.ActualDead(); d > 0 {
		return float64(c.TrueDead) / float64(d)
	}
	return 0
}

// Delta returns c minus prev, per class (interval-series emission).
func (c Confusion) Delta(prev Confusion) Confusion {
	return Confusion{
		TrueDead:  c.TrueDead - prev.TrueDead,
		Premature: c.Premature - prev.Premature,
		Missed:    c.Missed - prev.Missed,
	}
}

// ConfusionTracker grades fill-time dead predictions against ground truth.
//
// A bypassed entry never lives in the real structure, so its true outcome
// is unobservable there. The tracker therefore maintains a tag-only
// *mirror* of the structure with identical geometry and replacement policy
// that always allocates. Every access touches the mirror; a mirror fill is
// tagged with the predictor's claim for the corresponding real fill, and
// each mirror eviction is classified into the Confusion classes (zero hits
// means the entry died unused). Accuracy reads the same grading as the
// §VI-C accuracy and coverage.
//
// The tracker is passive: it observes the same (key, predictedDOA, now)
// stream the structure sees and never feeds anything back, so enabling it
// cannot perturb simulation results.
type ConfusionTracker struct {
	mirror *cache.Cache
	counts Confusion
}

// NewConfusionTracker builds a tracker mirroring a structure with the
// given geometry and policy (nil means LRU).
func NewConfusionTracker(name string, sets, ways int, pol policy.Policy) (*ConfusionTracker, error) {
	m, err := cache.New(cache.Config{Name: name + "-confusion", Sets: sets, Ways: ways, Policy: pol})
	if err != nil {
		return nil, err
	}
	return &ConfusionTracker{mirror: m}, nil
}

// Access records one access to the tracked structure. predictedDOA is the
// predictor's fill-time claim when this access caused a real fill (false
// on real-structure hits, unpredicted fills, and non-predicting refills
// such as shadow-table promotions).
func (c *ConfusionTracker) Access(key uint64, predictedDOA bool, now uint64) {
	if _, ok := c.mirror.Lookup(key, now); ok {
		return
	}
	nb, victim, evicted := c.mirror.Fill(key, policy.InsertMRU, now)
	// The DP bit is reused in the mirror to mean "predicted dead".
	nb.DP = predictedDOA
	if evicted {
		c.grade(victim)
	}
}

func (c *ConfusionTracker) grade(b cache.Block) {
	dead := b.Hits == 0
	switch {
	case b.DP && dead:
		c.counts.TrueDead++
	case b.DP:
		c.counts.Premature++
	case dead:
		c.counts.Missed++
	}
}

// Accuracy returns the grading so far as §VI-C accuracy and coverage.
func (c *ConfusionTracker) Accuracy() AccuracyResult {
	return AccuracyResult{Correct: c.counts.TrueDead, Wrong: c.counts.Premature, TrueDOA: c.counts.ActualDead()}
}

// Counts returns the classification so far. Entries still resident in the
// mirror are ungraded; call Flush first for an end-of-run total.
func (c *ConfusionTracker) Counts() Confusion { return c.counts }

// Flush grades every entry still resident in the mirror as if evicted and
// invalidates it, so end-of-run totals include the tail. Live monitoring
// never flushes; only end-of-run reporting does.
func (c *ConfusionTracker) Flush() {
	var resident []cache.Block
	c.mirror.ForEach(func(_, _ int, b *cache.Block) {
		resident = append(resident, *b)
	})
	for _, b := range resident {
		c.grade(b)
		c.mirror.Invalidate(b.Key)
	}
}
