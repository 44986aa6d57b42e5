package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/sim"
)

// The digests pin the simulated statistics. A change meant only to speed
// the simulator up must leave every one of them unchanged, so a report from
// the parent commit and one from the change can be compared digest by
// digest. Fields are hashed in the fixed order below, not through
// reflection, so adding a field to sim.Result does not move the digest of
// the fields that existed before.

type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digester) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// result hashes one cell's sim.Result.
func (d *digester) result(r sim.Result) {
	d.u64(r.Instructions)
	d.f64(r.Cycles, r.IPC)
	d.u64(r.MemAccesses, r.LLTLookups, r.LLTMisses, r.Walks, r.ShadowFills, r.LLTBypasses)
	d.f64(r.LLTMPKI)
	d.u64(r.LLCLookups, r.LLCMisses, r.LLCBypasses)
	d.f64(r.LLCMPKI)
	d.u64(r.PTAccesses, r.WalkCycles, r.WalkQueueCycles)
	d.u64(r.L1DLookups, r.L1DMisses, r.L2Lookups, r.L2Misses)
	d.u64(r.ITLBLookups, r.ITLBMisses, r.DTLBLookups, r.DTLBMisses)
	d.u64(r.PWCHits[0], r.PWCHits[1], r.PWCHits[2], r.FullWalks)
	d.f64(r.AvgMemLatency)
	d.u64(r.LLTAccuracy.Correct, r.LLTAccuracy.Wrong, r.LLTAccuracy.TrueDOA)
	d.u64(r.LLCAccuracy.Correct, r.LLCAccuracy.Wrong, r.LLCAccuracy.TrueDOA)
}

// cellDigest is one cell's digest: its full result, or its error.
func cellDigest(c cellResult) string {
	d := newDigester()
	d.str(c.name())
	if c.err != nil {
		d.str("error: " + c.err.Error())
	} else {
		d.result(c.res)
	}
	return d.sum()
}

// gridDigest combines the cells' digests in grid order.
func gridDigest(cells []cellResult) string {
	d := newDigester()
	for _, c := range cells {
		d.str(cellDigest(c))
	}
	return d.sum()
}
