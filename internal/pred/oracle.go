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
)

// DOARecord holds the fill outcomes captured by a RecorderTLB without a
// heap object per VPN: a log of every fill in fill order, each entry the
// filled VPN's dense id and its DOA bit, and by id the VPN's latest fill,
// which OnEvict resolves. The replay groups the outcomes by VPN once
// (NewOracleTLB), each group in its VPN's fill order.
type DOARecord struct {
	ids   map[arch.VPN]uint32 // dense VPN ids, in first-fill order
	fills column              // by fill: id<<1 | DOA bit
	last  column              // by id: index of the VPN's latest fill

	// Replay state (NewOracleTLB): by id, start[id] is the offset of the
	// VPN's first outcome in the grouped DOA bitset, next[id] its replay
	// cursor.
	start   []uint32
	next    []uint32
	grouped []uint64
}

// columnBits sizes a column's chunks (4096 entries, 16 KiB).
const columnBits = 12

// column is an append-only uint32 sequence kept in fixed-size chunks, so
// growing it never copies: a plain slice of a record's length allocates
// about four times its final size while append grows it.
type column struct {
	chunks [][]uint32
	n      int
}

// push appends v.
func (c *column) push(v uint32) {
	if c.n&(1<<columnBits-1) == 0 {
		c.chunks = append(c.chunks, make([]uint32, 1<<columnBits))
	}
	c.chunks[c.n>>columnBits][c.n&(1<<columnBits-1)] = v
	c.n++
}

// at returns entry i.
func (c *column) at(i uint32) *uint32 {
	return &c.chunks[i>>columnBits][i&(1<<columnBits-1)]
}

// NewDOARecord creates an empty record.
func NewDOARecord() *DOARecord {
	return &DOARecord{ids: make(map[arch.VPN]uint32)}
}

// Fills returns the number of recorded fills for vpn.
func (r *DOARecord) Fills(vpn arch.VPN) int {
	id, ok := r.ids[vpn]
	if !ok {
		return 0
	}
	n := 0
	for i := 0; i < r.fills.n; i++ {
		if *r.fills.at(uint32(i))>>1 == id {
			n++
		}
	}
	return n
}

// group builds the replay state: each VPN's outcomes in its fill order,
// the VPNs one after another in id order.
func (r *DOARecord) group() {
	vpns := r.last.n
	r.start = make([]uint32, vpns+1)
	for i := 0; i < r.fills.n; i++ {
		r.start[*r.fills.at(uint32(i))>>1+1]++
	}
	for id := 0; id < vpns; id++ {
		r.start[id+1] += r.start[id]
	}
	r.next = make([]uint32, vpns)
	copy(r.next, r.start)
	r.grouped = make([]uint64, (r.fills.n+63)/64)
	for i := 0; i < r.fills.n; i++ {
		f := *r.fills.at(uint32(i))
		pos := r.next[f>>1]
		r.next[f>>1]++
		r.grouped[pos/64] |= uint64(f&1) << (pos % 64)
	}
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
	rec := r.rec
	id, ok := rec.ids[vpn]
	if !ok {
		id = uint32(rec.last.n)
		rec.ids[vpn] = id
		rec.last.push(0)
	}
	*rec.last.at(id) = uint32(rec.fills.n)
	rec.fills.push(id << 1)
	return Decision{}
}

// OnEvict implements TLBPredictor: it resolves the VPN's most recent fill.
// A VPN is resident at most once, so fills and evictions strictly
// alternate per VPN and the last recorded fill is the one being evicted.
func (r *RecorderTLB) OnEvict(b cache.Block) {
	id, ok := r.rec.ids[arch.VPN(b.Key)]
	if !ok {
		return // eviction of an entry filled before recording began
	}
	f := r.rec.fills.at(*r.rec.last.at(id))
	*f = id << 1
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

// NewOracleTLB builds the replay predictor from a completed record,
// grouping its outcomes by VPN the first time. The replay cursors live in
// the record, so a record drives one oracle at a time; building an oracle
// rewinds them.
func NewOracleTLB(rec *DOARecord) *OracleTLB {
	if rec.start == nil {
		rec.group()
	}
	copy(rec.next, rec.start)
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
	rec := o.rec
	id, ok := rec.ids[vpn]
	if !ok {
		return Decision{}
	}
	i := rec.next[id]
	if i == rec.start[id+1] {
		return Decision{} // past the VPN's recorded fills
	}
	rec.next[id] = i + 1
	if rec.grouped[i/64]>>(i%64)&1 != 0 {
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
