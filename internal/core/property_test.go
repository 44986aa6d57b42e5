package core

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
)

// These property tests drive the predictors with randomized access streams
// (fixed seeds, so failures reproduce) and check the structural invariants
// the paper's storage budget depends on: saturating counters never leave
// [0, 2^bits-1], the shadow table never exceeds its configured occupancy,
// and the PFQ never holds more than its configured entries.

// checkPHISTBounds scans every pHIST counter.
func checkPHISTBounds(t *testing.T, p *DPPred, max uint8) {
	t.Helper()
	for r, row := range p.phist {
		for c, v := range row {
			if v > max {
				t.Fatalf("pHIST[%d][%d] = %d, outside [0,%d]", r, c, v, max)
			}
		}
	}
	h := p.CounterHistogram()
	if len(h) != int(max)+1 {
		t.Fatalf("CounterHistogram has %d buckets, want %d", len(h), int(max)+1)
	}
	var sum uint64
	for _, n := range h {
		sum += n
	}
	if want := uint64(len(p.phist) * len(p.phist[0])); sum != want {
		t.Fatalf("CounterHistogram tallies %d counters, table has %d", sum, want)
	}
}

func TestDPPredInvariantsUnderRandomStream(t *testing.T) {
	cfg := DefaultDPPredConfig(1024)
	p, err := NewDPPred(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const maxCtr = 7 // 3-bit counters

	rng := rand.New(rand.NewSource(1))
	// Small pools force hash collisions, shadow churn and counter
	// saturation within a short stream.
	vpn := func() arch.VPN { return arch.VPN(rng.Intn(64)) }
	pc := func() uint64 { return uint64(rng.Intn(16)) * 4 }

	for i := 0; i < 50_000; i++ {
		switch rng.Intn(4) {
		case 0:
			p.OnFill(vpn(), arch.PFN(rng.Intn(1024)), pc())
		case 1:
			p.OnMiss(vpn(), pc())
		case 2:
			p.OnEvict(cache.Block{
				Key:      uint64(vpn()),
				PCHash:   uint16(rng.Intn(1 << cfg.PCBits)),
				Accessed: rng.Intn(2) == 0,
			})
		case 3:
			p.OnHit(nil)
		}
		if got := p.shadow.Len(); got > cfg.ShadowEntries {
			t.Fatalf("step %d: shadow occupancy %d exceeds %d", i, got, cfg.ShadowEntries)
		}
		if i%500 == 0 {
			checkPHISTBounds(t, p, maxCtr)
		}
	}
	checkPHISTBounds(t, p, maxCtr)

	st := p.Stats()
	if st.Increments == 0 || st.Clears == 0 {
		t.Errorf("stream never trained both directions: %+v", st)
	}
}

// TestDPPredCounterSaturates pins the saturation edge: repeated dead
// evictions of one entry must park its counter exactly at the maximum, and
// one live eviction must clear it to zero.
func TestDPPredCounterSaturates(t *testing.T) {
	p, err := NewDPPred(DefaultDPPredConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	b := cache.Block{Key: 5, PCHash: 3}
	for i := 0; i < 100; i++ {
		p.OnEvict(b)
	}
	if got := p.Counter(3, 5); got != 7 {
		t.Errorf("counter after 100 dead evictions = %d, want saturated 7", got)
	}
	b.Accessed = true
	p.OnEvict(b)
	if got := p.Counter(3, 5); got != 0 {
		t.Errorf("counter after live eviction = %d, want 0", got)
	}
}

// TestShadowTableNeverExceedsCapacity also checks the FIFO displacement and
// hit-removes-entry semantics under random traffic.
func TestShadowTableNeverExceedsCapacity(t *testing.T) {
	s := newShadowTable(2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		if rng.Intn(3) == 0 {
			s.Lookup(arch.VPN(rng.Intn(8)))
		} else {
			s.Insert(arch.VPN(rng.Intn(8)), arch.PFN(i))
		}
		if got := s.Len(); got > 2 {
			t.Fatalf("step %d: shadow table holds %d entries, capacity 2", i, got)
		}
	}
	// A hit consumes the entry: the second lookup must miss.
	s.Insert(100, 200)
	if pfn, ok := s.Lookup(100); !ok || pfn != 200 {
		t.Fatalf("Lookup(100) = %d,%v after insert", pfn, ok)
	}
	if _, ok := s.Lookup(100); ok {
		t.Error("shadow entry survived its hit; victim buffer must consume")
	}
}

// checkBHISTBounds scans every bHIST counter.
func checkBHISTBounds(t *testing.T, p *CBPred, max uint8) {
	t.Helper()
	for i, v := range p.bhist {
		if v > max {
			t.Fatalf("bHIST[%d] = %d, outside [0,%d]", i, v, max)
		}
	}
}

// pfqLen counts valid PFQ slots (white-box; the queue is unexported).
func pfqLen(q *pfq) int {
	n := 0
	for _, v := range q.valid {
		if v {
			n++
		}
	}
	return n
}

func TestCBPredInvariantsUnderRandomStream(t *testing.T) {
	cfg := DefaultCBPredConfig(32768)
	p, err := NewCBPred(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	block := func() uint64 { return uint64(rng.Intn(4096)) }

	for i := 0; i < 50_000; i++ {
		switch rng.Intn(3) {
		case 0:
			p.NotifyDOAPage(arch.PFN(rng.Intn(128)))
		case 1:
			p.OnFill(block(), 0)
		case 2:
			p.OnEvict(cache.Block{
				Key:      block(),
				DP:       rng.Intn(2) == 0,
				Accessed: rng.Intn(2) == 0,
			})
		}
		if got := pfqLen(p.q); got > cfg.PFQEntries {
			t.Fatalf("step %d: PFQ holds %d frames, capacity %d", i, got, cfg.PFQEntries)
		}
		if i%500 == 0 {
			checkBHISTBounds(t, p, 7)
		}
	}
	checkBHISTBounds(t, p, 7)
}

// TestPFQFIFODisplacement pins the FIFO contract: after capacity+1 distinct
// inserts the oldest frame is gone and the newest 8 remain matchable.
func TestPFQFIFODisplacement(t *testing.T) {
	q := newPFQ(8)
	for f := arch.PFN(0); f < 9; f++ {
		q.Insert(f)
	}
	if q.Contains(0) {
		t.Error("oldest frame survived displacement in an 8-entry FIFO")
	}
	for f := arch.PFN(1); f < 9; f++ {
		if !q.Contains(f) {
			t.Errorf("frame %d missing; the newest 8 must remain", f)
		}
	}
	if got := pfqLen(q); got != 8 {
		t.Errorf("PFQ holds %d frames after 9 inserts, want 8", got)
	}
}

// TestCBPredOnlyDPBlocksTrain: evictions without the DP bit must leave
// bHIST untouched (the PFQ pre-filter is the accuracy mechanism of §V-B).
func TestCBPredOnlyDPBlocksTrain(t *testing.T) {
	p, err := NewCBPred(DefaultCBPredConfig(32768))
	if err != nil {
		t.Fatal(err)
	}
	const blk = 42
	for i := 0; i < 20; i++ {
		p.OnEvict(cache.Block{Key: blk, DP: false, Accessed: false})
	}
	if got := p.Counter(blk); got != 0 {
		t.Errorf("non-DP evictions trained bHIST to %d, want 0", got)
	}
	st := p.Stats()
	if st.Increments != 0 || st.Clears != 0 {
		t.Errorf("non-DP evictions recorded training events: %+v", st)
	}
}
