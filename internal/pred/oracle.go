// Oracle — the approximate oracle dead-page predictor of §VI-A (Table IV).
// The paper approximates an oracle "by tracking if a true DOA entry
// replaced a non-DOA entry ... effectively an oracle predictor with a
// lookahead of 1 for each evicted entry", because a full-future oracle is
// impractical to simulate.
//
// We implement the equivalent two-pass construction available to a
// deterministic trace-driven simulator: a first (recording) pass runs the
// baseline LLT and logs every fill and whether the entry turned out to be
// dead on arrival; a second (replay) pass counts each VPN's fills and
// bypasses exactly those whose per-VPN occurrence index the recording
// proved DOA. Because a DOA entry by definition receives no hit between
// fill and eviction, bypassing it does not change the fill sequence of its
// own VPN, so per-VPN occurrence indices stay aligned between the two
// passes.
package pred

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/pool"
)

// DOARecord holds the fill outcomes captured by a RecorderTLB without a
// heap object per VPN or a Go map: a log of every fill in fill order,
// each entry its DOA bit and a link to the same VPN's next fill, and an
// open-addressed VPN table whose slot holds the VPN's first and latest
// fill, which OnEvict resolves. The replay follows each VPN's links from
// its first fill, so its outcomes come back in its fill order. Both arrays
// grow by doubling and, for a record built with NewPooledDOARecord, come
// from its pool and go back to it in Release.
type DOARecord struct {
	pool  *pool.Pool
	slots []vpnSlot // power-of-two length, at most half full
	used  int       // occupied slots
	fills []outcome // by fill
}

// outcome is one fill's entry: the next fill of its VPN plus one (0 =
// none yet) shifted left by one, and the DOA bit.
type outcome uint32

// vpnSlot is one VPN's entry in the record's table, 16 bytes. first is
// the VPN's first fill plus one, 0 only in an empty slot. at is a fill
// plus one: while recording, the VPN's latest; once an oracle is built,
// the next one it replays (0 = past the VPN's last).
type vpnSlot struct {
	vpn       arch.VPN
	first, at uint32
}

// Initial capacities: a record grows by doubling from these.
const (
	slotsStart = 1 << 10
	fillsStart = 1 << 12
)

// NewDOARecord creates an empty record whose arrays are allocated as it
// grows.
func NewDOARecord() *DOARecord { return NewPooledDOARecord(nil) }

// NewPooledDOARecord is NewDOARecord with the arrays drawn from p, and
// returned to it by Release.
func NewPooledDOARecord(p *pool.Pool) *DOARecord {
	return &DOARecord{
		pool:  p,
		slots: pool.Make[vpnSlot](p, slotsStart),
		fills: pool.Make[outcome](p, fillsStart)[:0],
	}
}

// Release returns the record's arrays to its pool; any later fill, eviction
// or replay panics. The caller must know that no recorder or oracle will
// read the record again.
func (r *DOARecord) Release() {
	pool.Put(r.pool, r.slots)
	pool.Put(r.pool, r.fills)
	r.slots, r.fills = nil, nil
}

// find returns vpn's slot, or the empty slot where it belongs.
func (r *DOARecord) find(vpn arch.VPN) *vpnSlot {
	mask := uint64(len(r.slots) - 1)
	for i := uint64(vpn) * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		if s := &r.slots[i]; s.first == 0 || s.vpn == vpn {
			return s
		}
	}
}

// insert returns vpn's slot, claiming one (its first still 0) for a new
// VPN and doubling the table when that fills it past half.
func (r *DOARecord) insert(vpn arch.VPN) *vpnSlot {
	if s := r.find(vpn); s.first != 0 {
		return s
	}
	if 2*(r.used+1) > len(r.slots) {
		old := r.slots
		r.slots = pool.Make[vpnSlot](r.pool, 2*len(old))
		for _, s := range old {
			if s.first != 0 {
				*r.find(s.vpn) = s
			}
		}
		pool.Put(r.pool, old)
	}
	r.used++
	s := r.find(vpn)
	s.vpn = vpn
	return s
}

// RecorderTLB is a pass-through TLB predictor that captures ground-truth
// DOA outcomes into a DOARecord. It makes no predictions.
type RecorderTLB struct {
	rec *DOARecord
}

// NewRecorderTLB builds a recorder writing into rec.
func NewRecorderTLB(rec *DOARecord) *RecorderTLB {
	return &RecorderTLB{rec: rec}
}

// Name implements TLBPredictor.
func (*RecorderTLB) Name() string { return "oracle-recorder" }

// OnHit implements TLBPredictor.
func (*RecorderTLB) OnHit(*cache.Block) {}

// OnMiss implements TLBPredictor.
func (*RecorderTLB) OnMiss(arch.VPN, uint64) (arch.PFN, bool) { return 0, false }

// OnFill implements TLBPredictor. It appends a pending outcome (resolved at
// eviction; fills still resident at simulation end stay non-DOA, the
// conservative choice) and links it from the VPN's previous fill.
func (r *RecorderTLB) OnFill(vpn arch.VPN, _ arch.PFN, _ uint64) Decision {
	rec := r.rec
	rec.fills = pool.Append(rec.pool, rec.fills, 0)
	i := uint32(len(rec.fills))
	s := rec.insert(vpn)
	if s.first == 0 {
		s.first = i
	} else {
		rec.fills[s.at-1] |= outcome(i) << 1
	}
	s.at = i
	return Decision{}
}

// OnEvict implements TLBPredictor: it resolves the VPN's most recent fill.
// A VPN is resident at most once, so fills and evictions strictly
// alternate per VPN and the last recorded fill is the one being evicted.
func (r *RecorderTLB) OnEvict(b cache.Block) {
	s := r.rec.find(arch.VPN(b.Key))
	if s.first == 0 {
		return // eviction of an entry filled before recording began
	}
	f := &r.rec.fills[s.at-1]
	*f &^= 1
	if !b.Accessed {
		*f |= 1
	}
}

// StorageBits implements TLBPredictor; a recorder is instrumentation, not
// hardware.
func (*RecorderTLB) StorageBits() uint64 { return 0 }

// OracleTLB replays a DOARecord: it bypasses exactly the fills the
// recording pass proved dead on arrival.
type OracleTLB struct {
	rec *DOARecord

	predictions uint64
}

// NewOracleTLB builds the replay predictor from a completed record, which
// takes no more fills. The replay cursors live in the record, so a record
// drives one oracle at a time; building an oracle rewinds them.
func NewOracleTLB(rec *DOARecord) *OracleTLB {
	for i := range rec.slots {
		rec.slots[i].at = rec.slots[i].first
	}
	return &OracleTLB{rec: rec}
}

// Name implements TLBPredictor.
func (*OracleTLB) Name() string { return "oracle" }

// OnHit implements TLBPredictor.
func (*OracleTLB) OnHit(*cache.Block) {}

// OnMiss implements TLBPredictor.
func (*OracleTLB) OnMiss(arch.VPN, uint64) (arch.PFN, bool) { return 0, false }

// OnFill implements TLBPredictor.
func (o *OracleTLB) OnFill(vpn arch.VPN, _ arch.PFN, _ uint64) Decision {
	s := o.rec.find(vpn)
	if s.at == 0 {
		return Decision{} // an unrecorded VPN, or past its recorded fills
	}
	f := o.rec.fills[s.at-1]
	s.at = uint32(f >> 1)
	if f&1 != 0 {
		o.predictions++
		return Decision{Bypass: true, PredictDOA: true}
	}
	return Decision{}
}

// OnEvict implements TLBPredictor.
func (*OracleTLB) OnEvict(cache.Block) {}

// Predictions returns how many fills the oracle bypassed.
func (o *OracleTLB) Predictions() uint64 { return o.predictions }

// StorageBits implements TLBPredictor. An oracle has no hardware budget.
func (*OracleTLB) StorageBits() uint64 { return 0 }

var (
	_ TLBPredictor = (*RecorderTLB)(nil)
	_ TLBPredictor = (*OracleTLB)(nil)
)
