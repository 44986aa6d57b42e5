// Package stats implements the measurement machinery behind the paper's
// evaluation: mirror-structure accuracy/coverage grading (§VI-C), the
// dead/DOA characterization samplers of §IV (Figures 1–4), and the
// DOA-block/DOA-page correlation measurement of Table III.
package stats

// AccuracyResult is the §VI-C view of a ConfusionTracker's grading
// (ConfusionTracker.Accuracy): a correct prediction is a true-dead one, a
// wrong one is premature, and every entry that died unused — caught or
// missed — counts toward coverage. Accuracy = correct / predictions
// graded; Coverage = correct / true DOAs.
type AccuracyResult struct {
	// Correct and Wrong are graded predictions; TrueDOA is the coverage
	// denominator (all DOA evictions seen by the mirror).
	Correct, Wrong, TrueDOA uint64
}

// Accuracy returns the fraction of graded predictions that were correct,
// or 1 when no prediction was graded (an idle predictor is never wrong).
func (r AccuracyResult) Accuracy() float64 {
	graded := r.Correct + r.Wrong
	if graded == 0 {
		return 1
	}
	return float64(r.Correct) / float64(graded)
}

// Coverage returns the fraction of true DOA entries the predictor caught.
func (r AccuracyResult) Coverage() float64 {
	if r.TrueDOA == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.TrueDOA)
}
