package obs

import (
	"reflect"
	"sync"
	"testing"
)

// TestHistogramBucketing pins the log-bucket scheme: values land in the
// bucket of their bit length, bucket i's inclusive upper bound is 2^i − 1.
func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 40, 41},
	}
	var sum uint64
	for _, c := range cases {
		h.Observe(c.v)
		sum += c.v
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(cases))
	}
	if s.Sum != sum {
		t.Fatalf("Sum = %d, want %d", s.Sum, sum)
	}
	want := HistogramSnapshot{Count: s.Count, Sum: s.Sum}
	for _, c := range cases {
		want.Buckets[c.bucket]++
	}
	if s != want {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want.Buckets)
	}
	for i, bound := range map[int]uint64{0: 0, 1: 1, 2: 3, 3: 7, 4: 15, 10: 1023} {
		if got := HistBucketBound(i); got != bound {
			t.Errorf("HistBucketBound(%d) = %d, want %d", i, got, bound)
		}
	}
}

// TestHistogramSnapshotViews covers Mean and MaxBucket on a known
// distribution.
func TestHistogramSnapshotViews(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(3) // bucket 2
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket 10
	}
	s := h.Snapshot()
	if got := s.Mean(); got != (90*3+10*1000)/100.0 {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.MaxBucket(); got != 10 {
		t.Fatalf("MaxBucket = %d, want 10", got)
	}
	var empty HistogramSnapshot
	if empty.Mean() != 0 || empty.MaxBucket() != -1 {
		t.Fatal("empty-snapshot views not zero-valued")
	}
}

// TestHistogramConcurrentObserve: concurrent observers must lose nothing —
// the same commutativity that makes jobs=1 and jobs=8 grids produce
// identical snapshots.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, each = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(uint64(w))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Fatalf("Count = %d, want %d", s.Count, workers*each)
	}
	var wantSum uint64
	for w := 0; w < workers; w++ {
		wantSum += uint64(w) * each
	}
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
}

// BenchmarkHistogramObserve is CI-gated (benchstat, >10% fails): Observe
// sits on the simulator's per-access path whenever metrics are attached,
// so it must stay a few atomic adds and zero allocations.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

// TestRegistryHistogramSharing: a histogram created through a Sub view
// lives in the shared store (the ForkRun merge contract) and the flat
// Snapshot carries its scalar views.
func TestRegistryHistogramSharing(t *testing.T) {
	reg := NewRegistry()
	child := reg.Sub("cc/dpPred/")
	child.Histogram("hist.mem_latency").Observe(40)
	child.Histogram("hist.mem_latency").Observe(60)

	hists := reg.Histograms()
	hs, ok := hists["cc/dpPred/hist.mem_latency"]
	if !ok {
		t.Fatalf("histogram not visible from parent registry: %v", reflect.ValueOf(hists).MapKeys())
	}
	if hs.Count != 2 || hs.Sum != 100 {
		t.Fatalf("snapshot = %+v", hs)
	}
	snap := reg.Snapshot()
	if snap["cc/dpPred/hist.mem_latency.count"] != 2 ||
		snap["cc/dpPred/hist.mem_latency.sum"] != 100 ||
		snap["cc/dpPred/hist.mem_latency.mean"] != 50 {
		t.Fatalf("flattened scalar views wrong: %v", snap)
	}
	// Same name through the same view returns the same instance.
	if child.Histogram("hist.mem_latency") != child.Histogram("hist.mem_latency") {
		t.Fatal("Histogram not idempotent")
	}
}
