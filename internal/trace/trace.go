// Package trace generates the memory-access traces that drive the
// simulator. Real SPEC/GAPBS/Ligra/PARSEC/NPB binaries cannot run in this
// offline environment, so each of the paper's 14 workloads (Table II) is
// modelled as a deterministic synthetic generator that reproduces the
// documented access structure of its namesake: CSR graph gathers, stencil
// sweeps, sparse matrix–vector products, pointer chasing, random element
// swaps (DESIGN.md, substitution 2).
//
// A workload is a weighted mix of streams, each with its own instruction
// site (PC), memory region and access pattern. The decisive property for
// this paper is which streams produce dead-on-arrival pages and blocks:
// random gathers over large regions touch a page (and a block) once per
// last-level-TLB generation — DOA — while sequential index scans touch
// every line of a page before leaving it. Because streams have distinct
// PCs, DOA behaviour correlates with the PC exactly as dpPred expects.
package trace

import (
	"errors"

	"repro/internal/arch"
)

// Access is one record of the trace.
type Access struct {
	// PC is the address of the memory instruction.
	PC uint64
	// Addr is the virtual byte address accessed.
	Addr arch.VAddr
	// Write marks stores.
	Write bool
	// Dependent marks accesses whose address depends on the previous
	// memory access's result (pointer chasing); the timing model
	// serializes them.
	Dependent bool
	// Gap is the number of non-memory instructions retired before this
	// access.
	Gap uint32
}

// Generator produces an unbounded deterministic access stream. Two
// generators constructed with the same specification and seed produce
// identical streams — the oracle's two-pass replay depends on it.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next access.
	Next() Access
}

// ErrGenerator is a Generator that can fail mid-stream. Next cannot return
// an error without breaking the Generator contract, so sources backed by
// I/O (StreamReader) or by finite storage (BufferReader) latch the first
// failure instead and keep returning the last good access. Consumers that
// drain a generator — MaterializeContext, RecordV2, sim.System.Run — check Err
// afterwards via GeneratorErr, so trace corruption surfaces as an error
// instead of silently repeated records.
type ErrGenerator interface {
	Generator
	// Err returns the first error the generator latched, or nil.
	Err() error
}

// errEmptyTrace reports a structurally valid trace with zero records.
var errEmptyTrace = errors.New("trace: no records")

// ctxCheckStride is how many loop iterations drain loops (MaterializeContext,
// RecordV2, sim.System.RunContext) run between context checks: frequent
// enough that cancellation lands within microseconds, coarse enough that
// the check is invisible next to the per-iteration work. It doubles as the
// batch granule of the chunked APIs (Buffer.NextChunk, the DPBF v2 chunk
// size), so cancellation keeps landing at chunk boundaries.
const ctxCheckStride = 4096

// Every drain loop tests the stride with the mask form
// i&(ctxCheckStride-1) == 0, which is only equivalent to i%ctxCheckStride
// when the stride is a power of two; this constant fails to compile
// otherwise (a negative value cannot convert to uint).
const _ uint = -(ctxCheckStride & (ctxCheckStride - 1))

// GeneratorErr returns g's latched error when g is an ErrGenerator, and
// nil otherwise. Drain loops call it once after consuming the stream.
func GeneratorErr(g Generator) error {
	if eg, ok := g.(ErrGenerator); ok {
		return eg.Err()
	}
	return nil
}

// Workload is a named entry of the Table II suite.
type Workload struct {
	// Name is the paper's workload name ("cactusADM", "cc", ...).
	Name string
	// Suite is the benchmark suite the original came from.
	Suite string
	// Description summarizes the modelled access behaviour.
	Description string
	// FootprintMB is the synthetic working-set size.
	FootprintMB int
	// New constructs the generator for a seed.
	New func(seed uint64) Generator
}
