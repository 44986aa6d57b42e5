package core

import (
	"bytes"
	"context"
	"hash/fnv"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/trace"
)

// Differential fuzzing for the predictor arena: every registered TLB
// predictor is driven over a decoded DPBF trace buffer through the
// simulator's hook protocol (OnAccess → Lookup → OnHit / OnMiss → OnFill →
// fill/bypass → OnEvict) against an independent naive LRU reference model
// that mirrors only the *applied* decisions. Predictors that do not steer
// victim selection (no Victimizes capability) must agree with the
// reference on every hit and every eviction; all predictors must respect
// their registered capabilities and replay deterministically.

// refModel is the independent reference: a set-associative LRU structure
// holding bare keys, with none of the cache package's machinery.
type refModel struct {
	sets [][]uint64 // per set, keys ordered LRU (front) → MRU (back)
	ways int
}

func newRefModel(sets, ways int) *refModel {
	return &refModel{sets: make([][]uint64, sets), ways: ways}
}

func (m *refModel) setOf(key uint64) int { return int(key % uint64(len(m.sets))) }

// lookup reports residency and promotes a hit to MRU.
func (m *refModel) lookup(key uint64) bool {
	s := m.sets[m.setOf(key)]
	for i, k := range s {
		if k == key {
			m.sets[m.setOf(key)] = append(append(s[:i:i], s[i+1:]...), key)
			return true
		}
	}
	return false
}

// fill inserts a key, evicting the LRU key of a full set. A distant
// insert makes the new key the set's immediate next victim, mirroring
// policy.InsertDistant.
func (m *refModel) fill(key uint64, distant bool) (victim uint64, evicted bool) {
	si := m.setOf(key)
	s := m.sets[si]
	if len(s) == m.ways {
		victim, evicted = s[0], true
		s = append(s[:0:0], s[1:]...)
	}
	if distant {
		s = append([]uint64{key}, s...)
	} else {
		s = append(s, key)
	}
	m.sets[si] = s
	return victim, evicted
}

// diffGeometry keeps the harness structures small enough that short fuzz
// inputs still exercise evictions.
const (
	diffSets = 16
	diffWays = 4
	diffCap  = 1024 // accesses driven per predictor per input
)

// driveTLB replays the buffer through one predictor instance and returns a
// digest of its observable behavior. With checkRef it asserts lockstep
// hit/victim agreement with the naive reference.
func driveTLB(t *testing.T, reg pred.Registration, buf *trace.Buffer, checkRef bool) uint64 {
	t.Helper()
	guard, err := cache.New(cache.Config{Name: "fuzz-llt", Sets: diffSets, Ways: diffWays})
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.NewTLB(guard)
	if err != nil {
		t.Fatalf("%s: construct: %v", reg.Name, err)
	}
	obsv, _ := p.(pred.AccessObserver)
	ff, _ := p.(pred.FillFinisher)
	ref := newRefModel(diffSets, diffWays)
	dig := fnv.New64a()
	note := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			dig.Write(b[:])
		}
	}

	n := buf.Len()
	if n > diffCap {
		n = diffCap
	}
	for i := uint64(0); i < n; i++ {
		a := buf.At(i)
		vpn := a.Addr.Page()
		key := uint64(vpn)
		now := i + 1
		if obsv != nil {
			obsv.OnAccess(key)
		}
		if b, ok := guard.Lookup(key, now); ok {
			p.OnHit(b)
			note(1, key)
			if refHit := ref.lookup(key); checkRef && !refHit {
				t.Fatalf("%s: access %d: guard hit key %#x but reference missed — resident sets diverged",
					reg.Name, i, key)
			}
			continue
		}
		if checkRef && ref.lookup(key) {
			t.Fatalf("%s: access %d: guard missed key %#x but reference hit — resident sets diverged",
				reg.Name, i, key)
		}
		var d pred.Decision
		if _, handled := p.OnMiss(vpn, a.PC); handled {
			if !reg.Caps.VictimBuffer {
				t.Fatalf("%s: served a miss from a victim buffer without the VictimBuffer capability", reg.Name)
			}
			note(2, key)
			// The simulator refills a shadow hit without consulting
			// OnFill (Fig. 6a); d stays the zero decision.
		} else {
			d = p.OnFill(vpn, 0, a.PC)
			if d.Bypass {
				if !reg.Caps.Bypasses {
					t.Fatalf("%s: bypassed a fill without the Bypasses capability", reg.Name)
				}
				if !d.PredictDOA {
					t.Fatalf("%s: bypass without a DOA claim cannot be graded", reg.Name)
				}
				note(3, key)
				continue
			}
			if d.Hint == policy.InsertDistant && !reg.Caps.Demotes {
				t.Fatalf("%s: demoted a fill without the Demotes capability", reg.Name)
			}
		}
		nb, victim, evicted := guard.Fill(key, d.Hint, now)
		nb.PCHash = d.PCHash
		nb.Sig = d.Sig
		if ff != nil {
			ff.OnFillDone(nb)
		}
		refVictim, refEvicted := ref.fill(key, d.Hint == policy.InsertDistant)
		if checkRef {
			if evicted != refEvicted {
				t.Fatalf("%s: access %d: guard evicted=%v, reference evicted=%v",
					reg.Name, i, evicted, refEvicted)
			}
			if evicted && victim.Key != refVictim {
				t.Fatalf("%s: access %d: guard victimized %#x, reference %#x",
					reg.Name, i, victim.Key, refVictim)
			}
		}
		if evicted {
			note(4, victim.Key)
			p.OnEvict(victim)
		}
		note(5, key)
	}
	return dig.Sum64()
}

// FuzzPredictorVsReference cross-checks every registered TLB predictor
// against the naive reference model on fuzzed DPBF trace buffers.
func FuzzPredictorVsReference(f *testing.F) {
	for wi, w := range trace.Workloads() {
		if wi >= 2 {
			break
		}
		buf, err := trace.MaterializeContext(context.Background(), w.New(1), 512)
		if err != nil {
			f.Fatal(err)
		}
		var sink bytes.Buffer
		if _, err := buf.WriteToV2(&sink); err != nil {
			f.Fatal(err)
		}
		f.Add(sink.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf, err := trace.ReadBuffer(bytes.NewReader(data))
		if err != nil {
			t.Skip() // not a decodable buffer; the codec has its own fuzzer
		}
		for _, name := range pred.TLBNames() {
			reg, err := pred.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			// Victimizing predictors legitimately steer the guard's
			// eviction order away from plain LRU; they still must obey
			// their capabilities and replay deterministically.
			checkRef := !reg.Caps.Victimizes
			d1 := driveTLB(t, reg, buf, checkRef)
			d2 := driveTLB(t, reg, buf, checkRef)
			if d1 != d2 {
				t.Fatalf("%s: nondeterministic replay: digests %#x vs %#x", name, d1, d2)
			}
		}
	})
}

// TestPredictorVsReferenceSeeds runs the differential harness over the
// seed workloads under plain `go test`, so the cross-check guards every CI
// run, not just the fuzz-smoke job.
func TestPredictorVsReferenceSeeds(t *testing.T) {
	for wi, w := range trace.Workloads() {
		if wi >= 3 {
			break
		}
		buf, err := trace.MaterializeContext(context.Background(), w.New(7), diffCap)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range pred.TLBNames() {
			reg, err := pred.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			checkRef := !reg.Caps.Victimizes
			d1 := driveTLB(t, reg, buf, checkRef)
			d2 := driveTLB(t, reg, buf, checkRef)
			if d1 != d2 {
				t.Fatalf("%s on %s: nondeterministic replay", name, w.Name)
			}
		}
	}
}
