package exp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// cellSchema versions the cell-identity hash. Bump it whenever the meaning
// of a result changes for an unchanged (workload, setup, params) triple —
// e.g. a simulator fix that alters numbers — so persistent memos from
// before the change read as misses instead of serving stale results.
const cellSchema = "dpcell-v1"

// fingerprintCap bounds how many accesses WorkloadFingerprint hashes. The
// generators are deterministic functions of (workload, seed), so a prefix
// pins the whole stream; 64Ki accesses is long enough that two distinct
// generators colliding would have to agree on every PC, address, flag and
// gap for a full warmup's worth of history, and short enough that keying a
// cell costs well under a millisecond.
const fingerprintCap = 65536

// WorkloadFingerprint hashes the identity of a workload's access stream:
// its name, seed, total length, and the first min(n, 64Ki) accesses drawn
// from a fresh generator. Two workloads with equal fingerprints replay the
// same trace; a generator that fails while being fingerprinted surfaces
// its error instead of hashing the latched repeats.
func WorkloadFingerprint(w trace.Workload, seed, n uint64) (string, error) {
	h := sha256.New()
	var hdr [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(hdr[:], v)
		h.Write(hdr[:])
	}
	h.Write([]byte(cellSchema))
	h.Write([]byte(w.Name))
	writeU64(seed)
	writeU64(n)

	g := w.New(seed)
	sample := n
	if sample > fingerprintCap {
		sample = fingerprintCap
	}
	var rec [22]byte
	for i := uint64(0); i < sample; i++ {
		a := g.Next()
		binary.LittleEndian.PutUint64(rec[0:8], a.PC)
		binary.LittleEndian.PutUint64(rec[8:16], uint64(a.Addr))
		binary.LittleEndian.PutUint32(rec[16:20], a.Gap)
		rec[20], rec[21] = 0, 0
		if a.Write {
			rec[20] = 1
		}
		if a.Dependent {
			rec[21] = 1
		}
		h.Write(rec[:])
	}
	if err := trace.GeneratorErr(g); err != nil {
		return "", fmt.Errorf("exp: fingerprinting %s: %w", w.Name, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CellKey content-addresses one experiment cell: the workload's stream
// fingerprint × the setup's identity × the run parameters. Setup identity
// is its name plus the flags and topology that change what a run computes
// (the Table I topology adds nothing to the hash); the name is
// load-bearing — the in-process memo already requires that equal-named
// setups behave identically, and the persistent memo extends that contract
// across processes (ResolveSetup pins the standard names to exact
// constructions).
func CellKey(workloadFP string, setup Setup, p Params) string {
	h := sha256.New()
	var b [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	writeStr := func(s string) {
		writeU64(uint64(len(s)))
		h.Write([]byte(s))
	}
	writeStr(cellSchema)
	writeStr(workloadFP)
	writeStr(setup.Name)
	flags := uint64(0)
	if setup.Oracle {
		flags |= 1
	}
	if setup.Instrument.Accuracy {
		flags |= 2
	}
	if setup.Instrument.Characterize {
		flags |= 4
	}
	if setup.Instrument.Confusion {
		flags |= 8
	}
	t := setup.Topology
	if t != (Topology{}) {
		flags |= 16
	}
	writeU64(flags)
	if flags&16 != 0 {
		for _, v := range []uint64{uint64(t.Cores), uint64(t.Tenants), t.Quantum, uint64(t.Shootdown), t.UnmapEvery} {
			writeU64(v)
		}
	}
	writeU64(p.Warmup)
	writeU64(p.Measure)
	writeU64(p.Seed)
	writeU64(p.SampleEvery)
	return hex.EncodeToString(h.Sum(nil))
}

// CellMeta travels alongside a memoized result so a memo directory is
// self-describing: which cell a key stands for, in human terms.
type CellMeta struct {
	Workload string `json:"workload"`
	Setup    string `json:"setup"`
	Params   Params `json:"params"`
}

// CellMemo is a persistent result store keyed by CellKey. Get returns
// ok=false for both absent and unreadable entries — a corrupt or truncated
// entry must read as a miss (and may be deleted) so the cell is recomputed
// rather than trusted. Put must be atomic: a crash mid-Put leaves either
// the complete entry or nothing Get would accept. Implementations must be
// safe for concurrent use — the runner consults the memo from every grid
// cell in its worker pool.
type CellMemo interface {
	Get(key string) (sim.Result, bool, error)
	Put(key string, meta CellMeta, res sim.Result) error
}

// CellExecutor lets an external scheduler (expserve's coordinator) execute
// cells the runner would otherwise simulate locally. The runner offers it
// only cells a worker can rebuild by name (a catalog setup on a Table II
// workload); its result and error stand as the cell's outcome. The
// executor calls started once, when the cell's work begins (a worker's
// first lease); until then the cell reads as pending.
type CellExecutor func(ctx context.Context, key string, w trace.Workload, setup Setup, started func()) (sim.Result, error)

// cellKey keys a cell for the persistent memo / executor. The workload
// fingerprint is single-flight per workload name: every setup shares it,
// and concurrent cells of one workload hash its stream once.
func (r *Runner) cellKey(ctx context.Context, w trace.Workload, setup Setup) (string, error) {
	fp, _, err := r.fps.do(ctx, w.Name, func() (string, error) {
		return WorkloadFingerprint(w, r.params.Seed, r.params.Warmup+r.params.Measure)
	})
	if err != nil {
		return "", err
	}
	return CellKey(fp, setup, r.params), nil
}

// recall memoizes a cell the persistent memo holds and the runner does not,
// so its grid plans around it and run serves it as a memo hit. A keying
// failure or an unreadable entry is a miss, and the cell computes.
func (r *Runner) recall(ctx context.Context, w trace.Workload, setup Setup) {
	cell := w.Name + "/" + setup.Name
	if r.Memo == nil || r.results.has(cell) {
		return
	}
	key, err := r.cellKey(ctx, w, setup)
	if err != nil {
		return
	}
	if res, ok, err := r.Memo.Get(key); err == nil && ok {
		r.results.do(ctx, cell, func() (sim.Result, error) { return res, nil })
	}
}
