package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of buckets in a Histogram: one per power of
// two. Bucket i (i < 64) counts observations v with bits.Len64(v) == i,
// i.e. v in [2^(i-1), 2^i); the last bucket catches v ≥ 2^63.
const HistBuckets = 65

// Histogram is a log-bucketed distribution metric. Values land in the
// bucket of their bit length, so the bucket boundaries are 0, 1, 3, 7,
// 15, ... (upper bound of bucket i is 2^i − 1): three orders of magnitude
// of simulated latency fit in a dozen buckets with no configuration.
//
// Observe is wait-free (one atomic add per counter), so a simulation
// goroutine can observe while an HTTP handler snapshots the same
// histogram; counts are commutative, so snapshots taken after all runs
// join are identical whatever the worker-pool width — the same
// determinism contract the registry's counters have.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// histBucket returns the bucket index for a value.
func histBucket(v uint64) int { return bits.Len64(v) }

// HistBucketBound returns the inclusive upper bound of finite bucket i
// (values v ≤ 2^i − 1 fall in buckets 0..i). The last bucket
// (HistBuckets−1) has no finite bound; callers render it as +Inf.
func HistBucketBound(i int) uint64 { return 1<<uint(i) - 1 }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Buckets are per-bucket (not cumulative) counts; Count is their total and
// Sum the sum of observed values.
type HistogramSnapshot struct {
	Buckets [HistBuckets]uint64 `json:"buckets"`
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
}

// Snapshot copies the histogram's current state. Concurrent Observes may
// straddle the copy (a value counted in Count but not yet in a bucket, or
// vice versa); once observers quiesce the snapshot is exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// MaxBucket returns the index of the highest non-empty bucket (−1 when the
// histogram is empty). Expositions use it to stop printing trailing zero
// buckets.
func (s HistogramSnapshot) MaxBucket() int {
	for i := len(s.Buckets) - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return i
		}
	}
	return -1
}
