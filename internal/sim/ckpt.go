package sim

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/ckpt"
)

// Checkpoint framing: a magic, the format version, the meta block,
// scheduler state, the shared structures once, then per-tenant and
// per-core sections in index order, each behind a labeled section mark.
// DPMK v2 is the only layout written: 32-byte cache entries, plus the LLT's
// and LLC's generation records when the machine tracks entry times. DPMK
// v1 and DPCK, the single-core layout of earlier releases, are still read
// (their 64-byte entries carry the times in every structure); DPCK
// restores into a one-core one-tenant machine.
const (
	ckptMagic   = "DPMK"
	ckptVersion = 2
	dpmkV1      = 1

	dpckMagic   = "DPCK"
	dpckVersion = 1
)

// stateCodec is implemented by every component whose warm state a
// checkpoint carries.
type stateCodec interface {
	EncodeState(w *ckpt.Writer)
	DecodeState(r *ckpt.Reader) error
}

// CheckpointMeta identifies what a checkpoint was taken from, so a restore
// under different flags fails loudly instead of silently diverging. The
// restoring side fast-forwards tenant t's generator by TenantAccesses[t]
// to splice onto the same stream positions.
type CheckpointMeta struct {
	// Workload names the trace the checkpointed run consumed.
	Workload string
	// Seed is the workload/allocator seed.
	Seed uint64
	// The machine's shape and schedule.
	Cores, Tenants int
	Quantum        uint64
	Shootdown      ShootdownPolicy
	UnmapEvery     uint64
	// Accesses is the machine-total access count at checkpoint time;
	// TenantAccesses is the per-tenant breakdown (len == Tenants).
	Accesses       uint64
	TenantAccesses []uint64
	// TLBPred and LLCPred are the installed predictors' names.
	TLBPred string
	LLCPred string
}

// ckptCodecs returns the predictor codecs, or an error naming the first
// component that cannot be checkpointed.
func (s *System) ckptCodecs() (tlbC, llcC stateCodec, err error) {
	if s.cores[0].tlbPref != nil {
		return nil, nil, fmt.Errorf("sim: cannot checkpoint with a TLB prefetcher installed")
	}
	tlbC, ok := s.tlbPred.(stateCodec)
	if !ok {
		return nil, nil, fmt.Errorf("sim: TLB predictor %q is not checkpointable", s.tlbPred.Name())
	}
	llcC, ok = s.llcPred.(stateCodec)
	if !ok {
		return nil, nil, fmt.Errorf("sim: LLC predictor %q is not checkpointable", s.llcPred.Name())
	}
	return tlbC, llcC, nil
}

// WriteCheckpoint serializes the machine's full warm state to wr. The
// checkpoint captures pre-measurement state: take it after warmup, before
// StartMeasurement and before enabling instrumentation (accuracy mirrors,
// samplers and observers hold references into the live run and are rebuilt
// by the restoring side).
func (s *System) WriteCheckpoint(wr io.Writer, workload string) error {
	if attached, _ := s.instrumented(); attached {
		return fmt.Errorf("sim: cannot checkpoint with instrumentation enabled")
	}
	tlbC, llcC, err := s.ckptCodecs()
	if err != nil {
		return err
	}

	w := ckpt.NewWriter(wr)
	w.String(ckptMagic)
	w.U16(ckptVersion)
	w.String(workload)
	w.U64(s.cfg.Machine.Seed)
	w.U64(uint64(len(s.cores)))
	w.U64(uint64(len(s.tenants)))
	w.U64(s.cfg.Quantum)
	w.U64(uint64(s.cfg.Shootdown))
	w.U64(s.cfg.UnmapEvery)
	w.U64(s.counts.steps)
	for _, t := range s.tenants {
		w.U64(t.accesses)
	}
	w.String(s.tlbPred.Name())
	w.String(s.llcPred.Name())

	w.Mark("sched")
	w.U64(uint64(s.rr))
	for _, c := range s.schedState() {
		w.U64(*c)
	}
	for c := range s.cores {
		w.U64(uint64(s.curTenant[c]))
		w.U64(s.sliceLeft[c])
	}

	w.Mark("shared")
	s.llt.EncodeState(w)
	s.llc.EncodeState(w)
	tlbC.EncodeState(w)
	llcC.EncodeState(w)

	for i, t := range s.tenants {
		w.Mark(fmt.Sprintf("tenant%d", i))
		w.U64(t.unmaps)
		w.U64(uint64(t.count))
		for j := 0; j < t.count; j++ {
			w.U64(uint64(t.recent[(t.head+j)%unmapRingSize]))
		}
		// Each table embeds the shared allocator's state; all snapshots
		// are taken at the same instant, so decoding them in order is
		// idempotent on the shared allocator.
		t.pt.EncodeState(w)
	}

	for i, p := range s.cores {
		w.Mark(fmt.Sprintf("core%d", i))
		counters, comps := p.ckptState()
		for _, c := range counters {
			w.U64(*c)
		}
		for _, c := range comps {
			c.EncodeState(w)
		}
	}
	w.Mark("end")
	return w.Flush()
}

// ReadCheckpoint restores state written by WriteCheckpoint — or a DPMK v1
// or DPCK checkpoint an earlier release wrote, the latter into a one-core
// one-tenant machine — into a freshly built machine with the identical configuration and
// predictors, choosing the layout by its magic. After it returns,
// fast-forward tenant t's generator by meta.TenantAccesses[t]; stepping
// the restored machine is then bit-identical to having continued the
// checkpointed run. A checkpoint that does not describe this machine, or
// whose state is out of range, is an error; so is a DPMK v2 checkpoint
// without entry times restored into a machine that tracks them
// (TrackEntryTimes).
func (s *System) ReadCheckpoint(rd io.Reader) (CheckpointMeta, error) {
	tlbC, llcC, err := s.ckptCodecs()
	if err != nil {
		return CheckpointMeta{}, err
	}
	r := ckpt.NewReader(rd)
	magic := r.String()
	version := r.U16()
	if r.Err() != nil {
		return CheckpointMeta{}, r.Err()
	}
	var meta CheckpointMeta
	switch {
	case magic == ckptMagic && (version == ckptVersion || version == dpmkV1):
		r.SetVersion(version)
		meta, err = s.readDPMK(r, tlbC, llcC)
	case magic == dpckMagic && version == dpckVersion:
		// DPCK's caches hold the same entry records as DPMK v1.
		r.SetVersion(dpmkV1)
		meta, err = s.readDPCK(r, tlbC, llcC)
	case magic == ckptMagic || magic == dpckMagic:
		return CheckpointMeta{}, fmt.Errorf("sim: unsupported %s checkpoint version %d", magic, version)
	default:
		return CheckpointMeta{}, fmt.Errorf("sim: not a checkpoint file (magic %q)", magic)
	}
	if err != nil {
		return CheckpointMeta{}, err
	}
	r.Expect("end")
	if r.Err() != nil {
		return CheckpointMeta{}, r.Err()
	}
	// Rebind each core to its (restored) running tenant: the decode
	// replaced page-table trees, and the scheduler cursors may point at a
	// different tenant than at construction time.
	for c := range s.cores {
		s.bind(c)
	}
	return meta, nil
}

// schedState lists the machine counters a DPMK checkpoint carries after
// the round-robin cursor, in file order.
func (s *System) schedState() []*uint64 {
	return []*uint64{&s.counts.switches, &s.counts.shootdowns, &s.counts.shootdownFlushed, &s.counts.unmaps}
}

// ckptState lists a core's state a DPMK checkpoint carries, in file order:
// its counters, then its private components.
func (p *proc) ckptState() ([]*uint64, []stateCodec) {
	return []*uint64{&p.accesses, &p.walks, &p.shadowFills, &p.walkerBusyUntil, &p.walkQueueCycles, &p.stepNow},
		[]stateCodec{p.core, p.itlb, p.dtlb, p.l1d, p.l2, p.walk}
}

// checkMeta verifies that meta describes this machine and its predictors.
func (s *System) checkMeta(meta CheckpointMeta) error {
	mc := s.cfg
	switch {
	case meta.Cores != len(s.cores) || meta.Tenants != len(s.tenants):
		return fmt.Errorf("sim: checkpoint machine %dc×%dt does not match configured %dc×%dt",
			meta.Cores, meta.Tenants, len(s.cores), len(s.tenants))
	case meta.Seed != mc.Machine.Seed:
		return fmt.Errorf("sim: checkpoint seed %d does not match configured %d", meta.Seed, mc.Machine.Seed)
	case meta.Quantum != mc.Quantum || meta.Shootdown != mc.Shootdown || meta.UnmapEvery != mc.UnmapEvery:
		return fmt.Errorf("sim: checkpoint scheduling (quantum=%d shootdown=%s unmap=%d) does not match configured (quantum=%d shootdown=%s unmap=%d)",
			meta.Quantum, meta.Shootdown, meta.UnmapEvery, mc.Quantum, mc.Shootdown, mc.UnmapEvery)
	case meta.TLBPred != s.tlbPred.Name() || meta.LLCPred != s.llcPred.Name():
		return fmt.Errorf("sim: checkpoint predictors (tlb=%s llc=%s) do not match installed (tlb=%s llc=%s)",
			meta.TLBPred, meta.LLCPred, s.tlbPred.Name(), s.llcPred.Name())
	}
	return nil
}

// readDPMK decodes the body of a DPMK checkpoint.
func (s *System) readDPMK(r *ckpt.Reader, tlbC, llcC stateCodec) (CheckpointMeta, error) {
	meta := CheckpointMeta{
		Workload:   r.String(),
		Seed:       r.U64(),
		Cores:      int(r.U64()),
		Tenants:    int(r.U64()),
		Quantum:    r.U64(),
		Shootdown:  ShootdownPolicy(r.U64()),
		UnmapEvery: r.U64(),
		Accesses:   r.U64(),
	}
	if r.Err() != nil {
		return CheckpointMeta{}, r.Err()
	}
	// The shape is checked before TenantAccesses is sized by it.
	if meta.Cores != len(s.cores) || meta.Tenants != len(s.tenants) {
		return CheckpointMeta{}, s.checkMeta(meta)
	}
	meta.TenantAccesses = make([]uint64, meta.Tenants)
	for i := range meta.TenantAccesses {
		meta.TenantAccesses[i] = r.U64()
	}
	meta.TLBPred = r.String()
	meta.LLCPred = r.String()
	if r.Err() != nil {
		return CheckpointMeta{}, r.Err()
	}
	if err := s.checkMeta(meta); err != nil {
		return CheckpointMeta{}, err
	}

	r.Expect("sched")
	s.counts.steps = meta.Accesses
	rr := r.U64()
	for _, c := range s.schedState() {
		*c = r.U64()
	}
	cur := make([]uint64, len(s.cores))
	for c := range s.cores {
		cur[c] = r.U64()
		s.sliceLeft[c] = r.U64()
	}
	if r.Err() != nil {
		return CheckpointMeta{}, r.Err()
	}
	if rr >= uint64(len(s.active)) {
		return CheckpointMeta{}, fmt.Errorf("sim: checkpoint round-robin cursor %d out of range for %d active cores", rr, len(s.active))
	}
	s.rr = int(rr)
	for c, lst := range s.coreTenants {
		if len(lst) > 0 && cur[c] >= uint64(len(lst)) {
			return CheckpointMeta{}, fmt.Errorf("sim: checkpoint running tenant %d out of range for core %d", cur[c], c)
		}
		s.curTenant[c] = int(cur[c])
		if q := s.cfg.Quantum; q > 0 && len(lst) > 1 && (s.sliceLeft[c] == 0 || s.sliceLeft[c] > q) {
			return CheckpointMeta{}, fmt.Errorf("sim: checkpoint quantum remainder %d out of range [1, %d] for core %d", s.sliceLeft[c], q, c)
		}
	}

	r.Expect("shared")
	for _, c := range []stateCodec{s.llt, s.llc, tlbC, llcC} {
		if err := c.DecodeState(r); err != nil {
			return CheckpointMeta{}, err
		}
	}

	for i, t := range s.tenants {
		r.Expect(fmt.Sprintf("tenant%d", i))
		t.accesses = meta.TenantAccesses[i]
		t.unmaps = r.U64()
		count := r.U64()
		if count > unmapRingSize {
			return CheckpointMeta{}, fmt.Errorf("sim: checkpoint unmap ring size %d exceeds %d", count, unmapRingSize)
		}
		t.head = 0
		t.count = int(count)
		for j := 0; j < t.count; j++ {
			t.recent[j] = arch.VPN(r.U64())
		}
		if err := t.pt.DecodeState(r); err != nil {
			return CheckpointMeta{}, err
		}
	}

	for i, p := range s.cores {
		r.Expect(fmt.Sprintf("core%d", i))
		counters, comps := p.ckptState()
		for _, c := range counters {
			*c = r.U64()
		}
		for _, c := range comps {
			if err := c.DecodeState(r); err != nil {
				return CheckpointMeta{}, err
			}
		}
	}
	return meta, nil
}

// readDPCK decodes the body of a single-core DPCK checkpoint. DPCK carries
// no schedule, so it restores only into a one-core one-tenant machine
// without unmap injection, whose schedule never moves.
func (s *System) readDPCK(r *ckpt.Reader, tlbC, llcC stateCodec) (CheckpointMeta, error) {
	meta := CheckpointMeta{
		Workload:  r.String(),
		Seed:      r.U64(),
		Accesses:  r.U64(),
		TLBPred:   r.String(),
		LLCPred:   r.String(),
		Cores:     1,
		Tenants:   1,
		Quantum:   s.cfg.Quantum,
		Shootdown: s.cfg.Shootdown,
	}
	meta.TenantAccesses = []uint64{meta.Accesses}
	if r.Err() != nil {
		return CheckpointMeta{}, r.Err()
	}
	if err := s.checkMeta(meta); err != nil {
		return CheckpointMeta{}, err
	}

	p, t := s.cores[0], s.tenants[0]
	r.Expect("sim")
	s.counts.steps, t.accesses, p.accesses = meta.Accesses, meta.Accesses, meta.Accesses
	p.walks = r.U64()
	p.shadowFills = r.U64()
	p.prefFills = r.U64()
	p.prefUseful = r.U64()
	p.walkerBusyUntil = r.U64()
	p.walkQueueCycles = r.U64()
	p.stepNow = r.U64()
	for _, c := range []stateCodec{
		p.core, p.itlb, p.dtlb, s.llt, p.l1d, p.l2, s.llc,
		t.pt, p.walk, tlbC, llcC,
	} {
		if err := c.DecodeState(r); err != nil {
			return CheckpointMeta{}, err
		}
	}
	return meta, nil
}
