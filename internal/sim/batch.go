package sim

import (
	"repro/internal/arch"
	"repro/internal/trace"
)

// RunTenants finds stride boundaries with the mask form
// i&(ctxCheckStride-1); that is only equivalent to a modulus when the
// stride is a power of two, and this constant fails to compile otherwise
// (a negative value cannot convert to uint).
const _ uint = -(ctxCheckStride & (ctxCheckStride - 1))

// batchMemo tracks, for the three L1 structures an access stream keeps
// re-hitting — the two L1 TLBs and the L1D — the slot of the current run's
// entry plus the run of deferred hits against it. A run of accesses to the
// same key defers its hit-path side effects (counters, Accessed bit, LRU
// touches) and applies them in one closed-form HitRun when the run breaks,
// which is bit-identical to replaying them one by one because nothing else
// touches the structure mid-run (see the invariant below).
//
// Slot resolution is lazy: a slow path records only the key it installed
// (OK flag) and leaves the set/way unresolved (Loc flag clear). The first
// repeat of the key probes Locate — a genuine tag check — and only then
// does the run extend through the memoized slot. Streams with no reuse
// (run length 1, the common case on low-locality workloads) therefore
// never pay a Locate per slow path; streams with reuse pay exactly one per
// run.
//
// Invariant: while a structure's Loc flag is set, its memoized slot holds
// the memoized key and the structure has seen no traffic since the slot
// was resolved except this memo's own (possibly still pending) hits. The
// loop maintains it by construction: itlb traffic only originates from
// instruction-side translate calls, dtlb traffic from data-side translate
// calls, and l1d traffic from memAccess and from page walks (whose PTE
// fetches traverse the data caches) — and every one of those slow-path
// calls first flushes the affected structure's pending run and afterwards
// re-keys its memo (or, for walk-perturbed L1D state, clears Loc so the
// next repeat re-probes). Entries can therefore never be evicted or moved
// behind a set Loc flag, so the run-extension fast path needs no tag check
// at all. The memo lives on the stack of one run and is reset for every
// segment — it is never stored on the machine, so Fork and checkpointing
// are unaffected.
type batchMemo struct {
	iKey       arch.VPN // ASID-qualified instruction page
	iSet, iWay int
	iOK        bool   // iKey holds the most recent slow-path install
	iLoc       bool   // iSet/iWay resolved for iKey (implies iOK)
	iPend      uint64 // deferred hits on the slot
	iLast      uint64 // timestamp of the newest deferred hit

	dKey       arch.VPN // ASID-qualified data page
	dPFN       arch.PFN // its translation (immutable while resident)
	dSet, dWay int
	dOK        bool
	dLoc       bool
	dPend      uint64
	dLast      uint64

	// bVB keys the L1D run by *virtual* block number. Within one address
	// space frames are never aliased, and nothing is remapped while a memo
	// lives (the scheduler unmaps only between segments, each with a reset
	// memo), so virtual blocks map 1:1 to physical blocks and the fast
	// path can recognize a same-block repeat without translating at all.
	bVB        uint64
	bSet, bWay int
	bOK        bool
	bLoc       bool
	bPend      uint64
	bLast      uint64

	// Per-structure CoalescibleHits, resolved once per segment: a pluggable
	// replacement policy keeps opaque per-hit state, so its hits are
	// replayed individually through HitAt instead of deferred.
	iCo, dCo, bCo bool
}

// reset empties the memo for a new segment on core p: nothing is
// memoized, so each structure's first access takes the full
// path. runBatch leaves no deferred hits pending when it returns, and the
// other fields are only read under an OK flag, so clearing the flags is
// the same as a zero memo — without zeroing the whole struct for every
// one-access segment.
func (m *batchMemo) reset(p *proc) {
	m.iOK, m.dOK, m.bOK = false, false, false
	m.iCo = p.itlb.Inner().CoalescibleHits()
	m.dCo = p.dtlb.Inner().CoalescibleHits()
	m.bCo = p.l1d.CoalescibleHits()
}

// flushRuns applies every pending deferred-hit run. Called whenever the
// pending hits' structure is about to see other traffic, before anything
// that reads structure state (segment epilogues, returns), and on the
// error path so the machine is always left consistent.
func (p *proc) flushRuns(m *batchMemo) {
	if m.iPend > 0 {
		p.itlb.Inner().HitRun(m.iSet, m.iWay, m.iPend, m.iLast)
		m.iPend = 0
	}
	if m.dPend > 0 {
		p.dtlb.Inner().HitRun(m.dSet, m.dWay, m.dPend, m.dLast)
		m.dPend = 0
	}
	p.flushBlockRun(m)
}

// flushBlockRun applies the pending L1D run.
func (p *proc) flushBlockRun(m *batchMemo) {
	if m.bPend > 0 {
		p.l1d.HitRun(m.bSet, m.bWay, m.bPend, m.bLast)
		m.bPend = 0
	}
}

// translateMiss is runBatch's full translation of an access whose page
// (vpn, ASID-qualified) the instr side's memo does not hold. A translate
// may page-walk, and PTE fetches traverse the data caches: it settles the
// L1D run and the side's own TLB run first, drops the L1D slot if a walk
// really happened, and afterwards re-keys the side's memo.
func (p *proc) translateMiss(m *batchMemo, vpn arch.VPN, pc uint64, instr bool) (arch.Lat, arch.PFN, error) {
	p.flushBlockRun(m)
	if instr && m.iPend > 0 {
		p.itlb.Inner().HitRun(m.iSet, m.iWay, m.iPend, m.iLast)
		m.iPend = 0
	}
	if !instr && m.dPend > 0 {
		p.dtlb.Inner().HitRun(m.dSet, m.dWay, m.dPend, m.dLast)
		m.dPend = 0
	}
	walks := p.walks
	lat, pfn, err := p.translate(vpn, pc, instr)
	if err != nil {
		p.flushRuns(m)
		return 0, 0, err
	}
	if p.walks != walks {
		m.bLoc = false
	}
	if instr {
		m.iKey, m.iOK, m.iLoc = vpn, true, false
	} else {
		m.dKey, m.dPFN = vpn, pfn
		m.dOK, m.dLoc = true, false
	}
	return lat, pfn, nil
}

// runBatch is the simulator's only access loop: every driver hands it
// columnar chunks. Its result is that of simulating the accesses one at a
// time — same structure-touch order, same timestamps, same counter
// increments — but it hoists the per-access instrument tick checks out of
// the loop (the loop is split at the next tick and the tick runs in a
// per-segment epilogue) and turns
// same-page/same-block runs into deferred-hit runs resolved by one
// coalesced update each. It simulates accesses [lo, hi) of c (the chunk
// travels by pointer so a one-access segment passes its
// arguments in registers) and on error returns the index, counted from
// lo, of the access that failed.
func (p *proc) runBatch(m *batchMemo, c *trace.Chunk, lo, hi int) (int, error) {
	asid := arch.VPN(p.asidKey)
	i := lo
	for i < hi {
		// Split the batch after the next access at which an instrument
		// ticks, so the inner loop needs no modulus checks and the
		// epilogue fires the tick after exactly that access.
		lim, tick := hi, false
		if p.inst != nil {
			if n := p.inst.untilTick(p.accesses); n <= uint64(hi-i) {
				lim, tick = i+int(n), true
			}
		}

		for ; i < lim; i++ {
			if g := c.Gap[i]; g > 0 {
				p.core.Advance(uint64(g))
			}
			p.stepNow = uint64(p.core.Cycles())
			p.accesses++
			now := p.stepNow

			// Instruction-side translation. A repeat of the memoized
			// instruction page extends the deferred-hit run (latency 0, as
			// L1 hits are free); anything else flushes the run and takes
			// the full translate path, then re-keys the memo. The slot is
			// resolved lazily on the first repeat.
			var iLat arch.Lat
			ivpn := arch.VAddr(c.PC[i]).Page() | asid
			iHit := m.iOK && ivpn == m.iKey
			if iHit && !m.iLoc {
				m.iSet, m.iWay, m.iLoc = p.itlb.Inner().Locate(uint64(ivpn))
				iHit = m.iLoc
			}
			if iHit {
				if m.iCo {
					m.iPend++
					m.iLast = now
				} else {
					p.itlb.Inner().HitAt(m.iSet, m.iWay, uint64(ivpn), now)
				}
			} else {
				lat, _, err := p.translateMiss(m, ivpn, c.PC[i], true)
				if err != nil {
					return i - lo, err
				}
				iLat = lat
			}

			// Data-side translation; the memo carries the page's PFN,
			// which is immutable while the entry is resident.
			var dLat arch.Lat
			var pfn arch.PFN
			dvpn := arch.VAddr(c.VA[i]).Page() | asid
			dHit := m.dOK && dvpn == m.dKey
			if dHit && !m.dLoc {
				m.dSet, m.dWay, m.dLoc = p.dtlb.Inner().Locate(uint64(dvpn))
				dHit = m.dLoc
			}
			if dHit {
				pfn = m.dPFN
				if m.dCo {
					m.dPend++
					m.dLast = now
				} else {
					p.dtlb.Inner().HitAt(m.dSet, m.dWay, uint64(dvpn), now)
				}
			} else {
				lat, p, err := p.translateMiss(m, dvpn, c.PC[i], false)
				if err != nil {
					return i - lo, err
				}
				dLat, pfn = lat, p
			}

			// Data access. A same-virtual-block repeat extends the L1D
			// run without translating (the fast path above already proved
			// nothing remapped); a new block flushes the run, takes the
			// full memAccess path and re-keys. The slot resolves lazily on
			// the first repeat — and re-resolves after a page walk
			// perturbed the data caches, so a block that survived the
			// walk's PTE fetches keeps its run (exactly the L1D hit
			// memAccess would find), while an evicted one falls through to
			// memAccess (exactly its miss).
			var memLat arch.Lat
			vb := c.VA[i] >> arch.BlockShift
			bHit := m.bOK && vb == m.bVB
			if bHit && !m.bLoc {
				pa := arch.Translate(pfn, arch.VAddr(c.VA[i]))
				key := uint64(pa.Block() >> arch.BlockShift)
				m.bSet, m.bWay, m.bLoc = p.l1d.Locate(key)
				bHit = m.bLoc
			}
			if bHit {
				memLat = p.cfg.L1D.Latency
				if m.bCo {
					m.bPend++
					m.bLast = now
				} else {
					pa := arch.Translate(pfn, arch.VAddr(c.VA[i]))
					key := uint64(pa.Block() >> arch.BlockShift)
					p.l1d.HitAt(m.bSet, m.bWay, key, now)
				}
			} else {
				p.flushBlockRun(m)
				memLat = p.memAccess(arch.Translate(pfn, arch.VAddr(c.VA[i])), c.PC[i])
				m.bVB = vb
				m.bOK, m.bLoc = true, false
			}

			lat := uint64(iLat) + uint64(dLat) + uint64(memLat)
			if p.inst != nil {
				p.inst.accessDone(lat)
			}
			p.core.Memory(lat, c.Flags[i]&trace.FlagDependent != 0)
		}

		// Epilogue: settle the deferred runs (a ticking instrument reads
		// structure state and counters), then the tick due after the
		// segment's last access.
		if m.iPend|m.dPend|m.bPend != 0 {
			p.flushRuns(m)
		}
		if tick {
			p.inst.tick(p)
		}
	}
	return hi - lo, nil
}

// chunkSource draws a run's accesses from its generator as columnar
// chunks. A trace.ChunkReader serves views of its own buffers. Any other
// generator fills a reused scratch chunk from Next(), and so does a
// ChunkReader whose NextChunk comes back empty: the source can produce no
// records and has latched an error, and Next keeps returning the latched
// access, which the run consumes until its GeneratorErr check. A source
// never draws more than it is asked for, so a generator ends exactly as
// many records ahead as the run consumed; checkpoint splicing depends on
// that.
type chunkSource struct {
	g       trace.Generator
	cr      trace.ChunkReader // nil when g cannot serve chunks
	scratch *trace.Chunk
}

func newChunkSource(g trace.Generator, scratch *trace.Chunk) chunkSource {
	cr, _ := g.(trace.ChunkReader)
	return chunkSource{g: g, cr: cr, scratch: scratch}
}

// next returns between 1 and max (≤ ctxCheckStride) consecutive accesses.
// The chunk is valid until the next call.
func (src *chunkSource) next(max int) trace.Chunk {
	if src.cr != nil {
		if c, _ := src.cr.NextChunk(max); c.Len() > 0 {
			return c
		}
	}
	sc := src.scratch
	if sc.PC == nil {
		*sc = trace.Chunk{
			PC:    make([]uint64, ctxCheckStride),
			VA:    make([]uint64, ctxCheckStride),
			Gap:   make([]uint32, ctxCheckStride),
			Flags: make([]uint8, ctxCheckStride),
		}
	}
	c := trace.Chunk{PC: sc.PC[:max], VA: sc.VA[:max], Gap: sc.Gap[:max], Flags: sc.Flags[:max]}
	for i := range c.PC {
		a := src.g.Next()
		var f uint8
		if a.Write {
			f |= trace.FlagWrite
		}
		if a.Dependent {
			f |= trace.FlagDependent
		}
		c.PC[i], c.VA[i], c.Gap[i], c.Flags[i] = a.PC, uint64(a.Addr), a.Gap, f
	}
	return c
}
