package pred

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/policy"
)

func TestNullPredictorsAreInert(t *testing.T) {
	var nt NullTLB
	var nl NullLLC
	if _, handled := nt.OnMiss(1, 2); handled {
		t.Error("NullTLB handled a miss")
	}
	if d := nt.OnFill(1, 2, 3); d.Bypass || d.PredictDOA || d.Hint != policy.InsertMRU {
		t.Errorf("NullTLB decision %+v not neutral", d)
	}
	if d := nl.OnFill(1, 2); d.Bypass || d.SetDP {
		t.Errorf("NullLLC decision %+v not neutral", d)
	}
	if nt.StorageBits() != 0 || nl.StorageBits() != 0 {
		t.Error("null predictors report storage")
	}
}

// Fills returns the number of recorded fills for vpn, following its links.
func (r *DOARecord) Fills(vpn arch.VPN) int {
	n := 0
	for i := r.find(vpn).first; i != 0; i = uint32(r.fills[i-1] >> 1) {
		n++
	}
	return n
}

func TestRecorderCapturesDOAOutcomes(t *testing.T) {
	rec := NewDOARecord()
	r := NewRecorderTLB(rec)
	r.OnFill(10, 1, 0)
	r.OnEvict(cache.Block{Key: 10, Accessed: false}) // DOA
	r.OnFill(10, 1, 0)
	r.OnEvict(cache.Block{Key: 10, Accessed: true}) // not DOA
	r.OnFill(10, 1, 0)                              // never evicted → pending non-DOA
	if rec.Fills(10) != 3 {
		t.Fatalf("Fills = %d, want 3", rec.Fills(10))
	}
	o := NewOracleTLB(rec)
	d1 := o.OnFill(10, 1, 0)
	d2 := o.OnFill(10, 1, 0)
	d3 := o.OnFill(10, 1, 0)
	d4 := o.OnFill(10, 1, 0) // beyond record → no prediction
	if !d1.Bypass || d2.Bypass || d3.Bypass || d4.Bypass {
		t.Errorf("oracle decisions = %v %v %v %v, want bypass only on first",
			d1.Bypass, d2.Bypass, d3.Bypass, d4.Bypass)
	}
	if o.Predictions() != 1 {
		t.Errorf("Predictions = %d, want 1", o.Predictions())
	}
}

func TestRecorderIgnoresForeignEvictions(t *testing.T) {
	rec := NewDOARecord()
	r := NewRecorderTLB(rec)
	// Eviction with no recorded fill (e.g. filled before warmup) must
	// not panic or corrupt the record.
	r.OnEvict(cache.Block{Key: 99, Accessed: false})
	if rec.Fills(99) != 0 {
		t.Error("foreign eviction created a record")
	}
}

func TestSHiPTrainingCycle(t *testing.T) {
	s, err := NewSHiPTLB(DefaultSHiPTLBConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	const pc = 0x400777
	// Counters start at zero (original SHiP): untrained signatures are
	// predicted distant.
	d := s.OnFill(1, 1, pc)
	if d.Hint != policy.InsertDistant || !d.PredictDOA {
		t.Fatalf("decision %+v, want distant for untrained signature", d)
	}
	// A re-referenced entry trains the signature up: no longer distant.
	s.OnHit(&cache.Block{Sig: d.Sig, Hits: 1})
	d = s.OnFill(2, 1, pc)
	if d.Hint == policy.InsertDistant {
		t.Fatal("still distant after uptraining")
	}
	// An un-referenced eviction trains it back down to distant.
	s.OnEvict(cache.Block{Key: 2, Sig: d.Sig, Accessed: false})
	d = s.OnFill(3, 1, pc)
	if d.Hint != policy.InsertDistant {
		t.Error("not distant after downtraining")
	}
}

func TestSHiPOnlyFirstHitTrains(t *testing.T) {
	s, err := NewSHiPLLC(DefaultSHiPLLCConfig(32768))
	if err != nil {
		t.Fatal(err)
	}
	const pc = 0x400777
	d := s.OnFill(1, pc)
	b := &cache.Block{Sig: d.Sig}
	// Simulate many hits on one block: only the first may increment.
	for h := uint8(1); h <= 10; h++ {
		b.Hits = h
		s.OnHit(b)
	}
	// Now evict 2 never-referenced blocks with the same signature: the
	// counter went 1→2 (one uptrain) and must go 2→1→0, making the
	// third fill distant.
	s.OnEvict(cache.Block{Sig: d.Sig, Accessed: false})
	s.OnEvict(cache.Block{Sig: d.Sig, Accessed: false})
	if d := s.OnFill(2, pc); d.Hint != policy.InsertDistant {
		t.Error("counter shows extra hits trained more than once")
	}
}

func TestSHiPAccessedEvictionDoesNotDowntrain(t *testing.T) {
	s, err := NewSHiPTLB(DefaultSHiPTLBConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	const pc = 0x1234
	d := s.OnFill(1, 1, pc)
	s.OnHit(&cache.Block{Sig: d.Sig, Hits: 1}) // counter 0 → 1
	s.OnEvict(cache.Block{Sig: d.Sig, Accessed: true})
	if d := s.OnFill(2, 1, pc); d.Hint == policy.InsertDistant {
		t.Error("accessed eviction downtrained the signature")
	}
}

func TestSHiPConfigValidation(t *testing.T) {
	if _, err := NewSHiPTLB(SHiPConfig{SigBits: 0, CounterBits: 3}); err == nil {
		t.Error("SigBits=0 accepted")
	}
	if _, err := NewSHiPTLB(SHiPConfig{SigBits: 8, CounterBits: 0}); err == nil {
		t.Error("CounterBits=0 accepted")
	}
	if _, err := NewSHiPLLC(SHiPConfig{SigBits: 21, CounterBits: 3}); err == nil {
		t.Error("SigBits=21 accepted")
	}
}

func TestSHiPStorage(t *testing.T) {
	s, _ := NewSHiPTLB(DefaultSHiPTLBConfig(1024))
	// 256 × 3-bit SHCT + 1024 × (8-bit sig + outcome bit).
	want := uint64(256*3 + 1024*9)
	if got := s.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
	l, _ := NewSHiPLLC(DefaultSHiPLLCConfig(32768))
	// The paper cites ~66 KB for SHiP at LLC scale; ours is the same
	// order: 16K × 3-bit + 32K × 15-bit ≈ 66 KB.
	if kb := float64(l.StorageBits()) / 8 / 1024; kb < 55 || kb > 80 {
		t.Errorf("SHiP-LLC storage = %.1f KB, want ≈66 KB", kb)
	}
}

func mkTLBCache(t *testing.T) *cache.Cache {
	t.Helper()
	return cache.MustNew(cache.Config{Name: "llt", Sets: 4, Ways: 2})
}

// deadMarked reports whether key's resident entry in c carries a
// dead-mark. It asks a clone: with key alone in its set and a fresh entry
// parked as the LRU way, the next fill evicts key only if key is marked.
func deadMarked(t *testing.T, c *cache.Cache, key uint64) bool {
	t.Helper()
	n, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Probe(key); !ok || n.Ways() < 2 {
		t.Fatalf("deadMarked(%d): needs a resident key in a set of two ways or more", key)
	}
	set := n.SetIndex(key)
	var others []uint64
	n.ForEach(func(s, _ int, b *cache.Block) {
		if s == set && b.Key != key {
			others = append(others, b.Key)
		}
	})
	for _, k := range others {
		n.Invalidate(k)
	}
	for k := key + uint64(n.Sets()); ; k += uint64(n.Sets()) {
		if _, victim, evicted := n.Fill(k, policy.InsertDistant, 0); evicted {
			return victim.Key == key
		}
	}
}

func TestAIPLearnsIntervalAndMarksDead(t *testing.T) {
	target := mkTLBCache(t)
	a, err := NewAIPTLB(DefaultAIPTLBConfig(8), target)
	if err != nil {
		t.Fatal(err)
	}
	const pc, key = 0x400123, uint64(4)
	// Generation 1: block sees interval max 2, then evicts.
	d := a.OnFill(arch.VPN(key), 0, pc)
	nb, _, _ := target.Fill(key, policy.InsertMRU, 0)
	nb.PCHash = d.PCHash
	a.OnFillDone(nb)
	nb.AIPMax = 2
	ev := *nb
	target.Invalidate(key)
	a.OnEvict(ev)
	// Generation 2 with the same max: confidence sets.
	a.OnEvict(ev)
	// Generation 3: fill loads threshold 2 with confidence.
	d = a.OnFill(arch.VPN(key), 0, pc)
	nb, _, _ = target.Fill(key, policy.InsertMRU, 1)
	nb.PCHash = d.PCHash
	a.OnFillDone(nb)
	if nb.AIPThreshold != 2 || !nb.AIPConf {
		t.Fatalf("loaded threshold=%d conf=%v, want 2,true", nb.AIPThreshold, nb.AIPConf)
	}
	// Three accesses to other keys in the same set exceed the interval.
	other := key + uint64(target.Sets())
	target.Fill(other, policy.InsertMRU, 2)
	for i := 0; i < 3; i++ {
		a.OnAccess(other)
		target.Lookup(other, uint64(3+i))
	}
	if !deadMarked(t, target, key) {
		t.Error("block not dead-marked after exceeding learned interval")
	}
	// A hit revives it (the structure clears the mark, AIP resets the
	// counter).
	target.Lookup(key, 10)
	a.OnHit(nb)
	if deadMarked(t, target, key) || nb.AIPCount != 0 {
		t.Errorf("hit did not revive: deadMark=%v count=%d", deadMarked(t, target, key), nb.AIPCount)
	}
}

func TestAIPNoConfidenceNoMark(t *testing.T) {
	target := mkTLBCache(t)
	a, err := NewAIPTLB(DefaultAIPTLBConfig(8), target)
	if err != nil {
		t.Fatal(err)
	}
	const key = uint64(4)
	nb, _, _ := target.Fill(key, policy.InsertMRU, 0)
	a.OnFillDone(nb) // nothing learned: conf=false, threshold=0
	other := key + uint64(target.Sets())
	target.Fill(other, policy.InsertMRU, 0)
	for i := 0; i < 100; i++ {
		a.OnAccess(other)
	}
	if deadMarked(t, target, key) {
		t.Error("dead-marked without confidence")
	}
}

func TestAIPEvictionTrainsWithFinalInterval(t *testing.T) {
	target := mkTLBCache(t)
	a, err := NewAIPTLB(DefaultAIPTLBConfig(8), target)
	if err != nil {
		t.Fatal(err)
	}
	// An entry evicted with a running interval larger than its max
	// trains with the running interval.
	b := cache.Block{Key: 4, PCHash: 9, AIPMax: 1, AIPCount: 5}
	a.OnEvict(b)
	a.OnEvict(b) // same value twice → confident
	d := a.OnFill(arch.VPN(4), 0, 0)
	_ = d
	nb, _, _ := target.Fill(4, policy.InsertMRU, 0)
	nb.PCHash = 9
	a.OnFillDone(nb)
	if nb.AIPThreshold != 5 || !nb.AIPConf {
		t.Errorf("threshold=%d conf=%v, want 5,true", nb.AIPThreshold, nb.AIPConf)
	}
}

func TestAIPValidation(t *testing.T) {
	target := mkTLBCache(t)
	if _, err := NewAIPTLB(AIPConfig{PCBits: 0, AddrBits: 8}, target); err == nil {
		t.Error("PCBits=0 accepted")
	}
	if _, err := NewAIPTLB(DefaultAIPTLBConfig(8), nil); err == nil {
		t.Error("nil target accepted")
	}
}

func TestAIPStorageDominatedByPerEntryBits(t *testing.T) {
	llc := cache.MustNew(cache.Config{Name: "llc", Sets: 2048, Ways: 16})
	a, _ := NewAIPLLC(DefaultAIPLLCConfig(32768), llc)
	kb := float64(a.StorageBits()) / 8 / 1024
	// The paper charges AIP ~124 KB at LLC scale.
	if kb < 80 || kb > 200 {
		t.Errorf("AIP-LLC storage = %.1f KB, want order of 124 KB", kb)
	}
}
