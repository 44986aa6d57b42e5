// Oracle — the approximate oracle dead-page predictor of §VI-A (Table IV).
// The paper approximates an oracle "by tracking if a true DOA entry
// replaced a non-DOA entry ... effectively an oracle predictor with a
// lookahead of 1 for each evicted entry", because a full-future oracle is
// impractical to simulate.
//
// We implement the equivalent two-pass construction available to a
// deterministic trace-driven simulator: a first (recording) pass runs the
// baseline LLT and logs, for every fill in per-VPN order, whether the entry
// turned out to be dead on arrival; a second (replay) pass bypasses exactly
// the fills the recording proved DOA. Because a DOA entry by definition
// receives no hit between fill and eviction, bypassing it does not change
// the fill sequence of its own VPN, so per-VPN occurrence indices stay
// aligned between the two passes.
package pred

import (
	"repro/internal/arch"
	"repro/internal/cache"
)

// DOARecord holds per-VPN fill outcomes captured by a RecorderTLB, in fill
// order for each VPN.
type DOARecord struct {
	vpns map[arch.VPN]*vpnRecord
}

// vpnRecord is one VPN's fill outcomes (true = dead on arrival) and the
// replay cursor an OracleTLB advances, so each hook probes the map once.
type vpnRecord struct {
	doa  []bool
	next int
}

// NewDOARecord creates an empty record.
func NewDOARecord() *DOARecord {
	return &DOARecord{vpns: make(map[arch.VPN]*vpnRecord)}
}

// Fills returns the number of recorded fills for vpn.
func (r *DOARecord) Fills(vpn arch.VPN) int {
	if e := r.vpns[vpn]; e != nil {
		return len(e.doa)
	}
	return 0
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
// conservative choice).
func (r *RecorderTLB) OnFill(vpn arch.VPN, _ arch.PFN, _ uint64) Decision {
	e := r.rec.vpns[vpn]
	if e == nil {
		e = &vpnRecord{}
		r.rec.vpns[vpn] = e
	}
	e.doa = append(e.doa, false)
	return Decision{}
}

// OnEvict implements TLBPredictor: it resolves the VPN's most recent fill.
// A VPN is resident at most once, so fills and evictions strictly
// alternate per VPN and the last recorded fill is the one being evicted.
func (r *RecorderTLB) OnEvict(b cache.Block) {
	e := r.rec.vpns[arch.VPN(b.Key)]
	if e == nil {
		return // eviction of an entry filled before recording began
	}
	e.doa[len(e.doa)-1] = !b.Accessed
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

// NewOracleTLB builds the replay predictor from a completed record. The
// replay cursors live in the record, so a record drives one oracle at a
// time; building an oracle rewinds them.
func NewOracleTLB(rec *DOARecord) *OracleTLB {
	for _, e := range rec.vpns {
		e.next = 0
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
	e := o.rec.vpns[vpn]
	if e == nil {
		return Decision{}
	}
	i := e.next
	e.next++
	if i < len(e.doa) && e.doa[i] {
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
