package pred

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/pool"
)

// refRecord is the map-based DOA record the pooled one replaces: each
// recorded VPN's outcomes in its fill order.
type refRecord struct {
	outcomes map[arch.VPN][]bool
}

func (r *refRecord) fill(vpn arch.VPN) { r.outcomes[vpn] = append(r.outcomes[vpn], false) }

func (r *refRecord) evict(vpn arch.VPN, accessed bool) {
	if o := r.outcomes[vpn]; len(o) > 0 {
		o[len(o)-1] = !accessed
	}
}

// doaOp is one LLT event of a recording stream.
type doaOp struct {
	vpn      arch.VPN
	evict    bool
	accessed bool
}

// doaStream draws n events over vpns distinct VPNs the way an LLT emits
// them: a VPN is resident at most once, so its fills and evictions
// alternate. The first VPNs start resident, as if filled before recording
// began, so their first evictions are of unrecorded fills.
func doaStream(rng *rand.Rand, n, vpns int) []doaOp {
	resident := make([]arch.VPN, 0, vpns)
	in := make(map[arch.VPN]bool)
	for v := 0; v < vpns/8; v++ {
		vpn := arch.VPN(v * 7919)
		resident = append(resident, vpn)
		in[vpn] = true
	}
	ops := make([]doaOp, 0, n)
	for len(ops) < n {
		if len(resident) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(resident))
			vpn := resident[i]
			resident[i] = resident[len(resident)-1]
			resident = resident[:len(resident)-1]
			delete(in, vpn)
			ops = append(ops, doaOp{vpn: vpn, evict: true, accessed: rng.Intn(3) == 0})
			continue
		}
		vpn := arch.VPN(rng.Intn(vpns) * 7919)
		if in[vpn] {
			continue
		}
		in[vpn] = true
		resident = append(resident, vpn)
		ops = append(ops, doaOp{vpn: vpn})
	}
	return ops
}

// TestDOARecordMatchesMapReference: fed random fill/evict streams that
// cross several doublings of the VPN table and of the fill log, the pooled
// record drives OracleTLB to the bypass decisions a map-based record
// gives, fill for fill, on a replay that also fills unrecorded VPNs and
// recorded ones past their recorded fills. A second record built after the
// first's release draws every array from the pool.
func TestDOARecordMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := doaStream(rng, 40_000, 5_000)
		p := pool.New(2)
		record := func() *DOARecord {
			rec := NewPooledDOARecord(p)
			r := NewRecorderTLB(rec)
			for _, op := range ops {
				if op.evict {
					r.OnEvict(cache.Block{Key: uint64(op.vpn), Accessed: op.accessed})
				} else {
					r.OnFill(op.vpn, 0, 0)
				}
			}
			return rec
		}
		ref := &refRecord{outcomes: make(map[arch.VPN][]bool)}
		for _, op := range ops {
			if op.evict {
				ref.evict(op.vpn, op.accessed)
			} else {
				ref.fill(op.vpn)
			}
		}

		rec := record()
		if len(rec.slots) < 4*slotsStart || cap(rec.fills) < 4*fillsStart {
			t.Fatalf("seed %d: the stream crossed too few doublings (%d slots, %d fills)",
				seed, len(rec.slots), cap(rec.fills))
		}
		o := NewOracleTLB(rec)
		next := make(map[arch.VPN]int)
		var bypassed uint64
		for i := 0; i < 60_000; i++ {
			vpn := arch.VPN(rng.Intn(6_000) * 7919) // a sixth never recorded
			k := next[vpn]
			next[vpn]++
			want := k < len(ref.outcomes[vpn]) && ref.outcomes[vpn][k]
			if want {
				bypassed++
			}
			if d := o.OnFill(vpn, 0, 0); d.Bypass != want || d.PredictDOA != want {
				t.Fatalf("seed %d: replay fill %d of vpn %#x (its %dth): %+v, want bypass %v",
					seed, i, vpn, k, d, want)
			}
		}
		if o.Predictions() != bypassed {
			t.Fatalf("seed %d: Predictions = %d, want %d", seed, o.Predictions(), bypassed)
		}
		for vpn, out := range ref.outcomes {
			if rec.Fills(vpn) != len(out) {
				t.Fatalf("seed %d: Fills(%#x) = %d, want %d", seed, vpn, rec.Fills(vpn), len(out))
			}
		}

		rec.Release()
		before := p.Stats()
		record().Release()
		if got := p.Stats(); got.Allocated != before.Allocated || got.Reused == before.Reused {
			t.Fatalf("seed %d: the second record allocated %d arrays and reused %d",
				seed, got.Allocated-before.Allocated, got.Reused-before.Reused)
		}
	}
}
