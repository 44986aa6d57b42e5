package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// multiBuffers materializes n accesses per tenant (deterministic mixes
// with spread seeds) so warm state can be replayed bit-identically from
// any position.
func multiBuffers(t testing.TB, tenants int, seed, n uint64) []*trace.Buffer {
	t.Helper()
	bufs := make([]*trace.Buffer, tenants)
	for i := range bufs {
		b, err := trace.MaterializeContext(context.Background(), obsTestMix(t, seed+uint64(i)), n)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	return bufs
}

// readers builds one positioned generator per tenant buffer (pos nil
// starts everyone at zero).
func readers(bufs []*trace.Buffer, pos []uint64) []trace.Generator {
	gens := make([]trace.Generator, len(bufs))
	for i, b := range bufs {
		p := uint64(0)
		if pos != nil {
			p = pos[i]
		}
		gens[i] = readerAt(b, p)
	}
	return gens
}

// readerAt returns a reader over b that has read its first pos accesses.
func readerAt(b *trace.Buffer, pos uint64) *trace.BufferReader {
	rd := b.Reader()
	for range pos {
		rd.Next()
	}
	return rd
}

// positions snapshots each reader's cursor.
func positions(gens []trace.Generator) []uint64 {
	pos := make([]uint64, len(gens))
	for i, g := range gens {
		pos[i] = g.(*trace.BufferReader).Pos()
	}
	return pos
}

// runTenants runs n accesses of the machine's tenants without a
// deadline.
func runTenants(m *System, gens []trace.Generator, n uint64) error {
	return m.RunTenants(context.Background(), gens, n)
}

// installMultiPreds gives the machine the deepest-state predictor pair.
func installMultiPreds(t testing.TB, m *System) {
	t.Helper()
	dp, err := core.NewDPPred(core.DefaultDPPredConfig(m.LLT().Entries()))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := core.NewCBPred(core.DefaultCBPredConfig(m.LLC().Capacity()))
	if err != nil {
		t.Fatal(err)
	}
	m.SetTLBPredictor(dp)
	m.SetLLCPredictor(cb)
}

func TestNewMultiValidates(t *testing.T) {
	for _, mc := range []MultiConfig{
		{Machine: smallConfig(), Cores: 0, Tenants: 1},
		{Machine: smallConfig(), Cores: 1, Tenants: 0},
		{Machine: smallConfig(), Cores: 1, Tenants: maxTenants + 1},
		{Machine: smallConfig(), Cores: 1, Tenants: 1, Shootdown: ShootdownPolicy(7)},
	} {
		if _, err := NewMulti(mc); err == nil {
			t.Errorf("config %+v accepted", mc)
		}
	}
	bad := smallConfig()
	bad.PhysMemMB = 0
	if _, err := NewMulti(MultiConfig{Machine: bad, Cores: 1, Tenants: 1}); err == nil {
		t.Error("bad machine config accepted")
	}
}

func TestParseShootdown(t *testing.T) {
	for s, want := range map[string]ShootdownPolicy{"asid": ShootdownFlushASID, "full": ShootdownFullFlush} {
		got, err := ParseShootdown(s)
		if err != nil || got != want {
			t.Errorf("ParseShootdown(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseShootdown("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// tlbCount returns a TLB's live-entry count.
func tlbCount(tl *tlb.TLB) int {
	n := 0
	tl.Inner().ForEach(func(_, _ int, _ *cache.Block) { n++ })
	return n
}

// tlbKeysByASID snapshots which keys each address space holds in a TLB.
func tlbKeysByASID(tl *tlb.TLB) map[uint64]map[uint64]bool {
	out := map[uint64]map[uint64]bool{}
	tl.Inner().ForEach(func(_, _ int, b *cache.Block) {
		asid := b.Key >> arch.VPNBits
		if out[asid] == nil {
			out[asid] = map[uint64]bool{}
		}
		out[asid][b.Key] = true
	})
	return out
}

// TestFlushASIDProperty: over randomized fill sequences, FlushASID(a)
// drops exactly the entries tagged a — never another tenant's — and
// FlushAll drops everything.
func TestFlushASIDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		tl := tlb.MustNew(tlb.Config{Name: "t", Entries: 64, Ways: 4, Latency: 1})
		for i := 0; i < 300; i++ {
			asid := uint64(rng.Intn(4))
			vpn := arch.VPN(asid<<arch.VPNBits | uint64(rng.Intn(512)))
			// Fill only on miss, as the simulator does: Fill assumes the
			// key is absent, and a duplicate fill would create two blocks
			// under one key.
			if _, resident := tl.Probe(vpn); !resident {
				tl.Fill(vpn, arch.PFN(i), 0, 0, uint64(i))
			}
		}
		victim := uint64(rng.Intn(4))
		before := tlbKeysByASID(tl)
		flushed := tl.FlushASID(victim)
		after := tlbKeysByASID(tl)

		if flushed != len(before[victim]) {
			t.Fatalf("trial %d: FlushASID(%d) reported %d, held %d", trial, victim, flushed, len(before[victim]))
		}
		if len(after[victim]) != 0 {
			t.Fatalf("trial %d: %d entries of flushed ASID %d survived", trial, len(after[victim]), victim)
		}
		for asid, keys := range before {
			if asid == victim {
				continue
			}
			if !reflect.DeepEqual(after[asid], keys) {
				t.Fatalf("trial %d: FlushASID(%d) disturbed ASID %d: before=%d after=%d",
					trial, victim, asid, len(keys), len(after[asid]))
			}
		}
		tl.FlushAll()
		if n := tlbCount(tl); n != 0 {
			t.Fatalf("trial %d: FlushAll left %d entries", trial, n)
		}
	}
}

// TestShootdownASIDIsolation runs a real two-tenant machine and checks the
// system-level property: an ASID-targeted shootdown leaves every other
// tenant's LLT and L1 TLB entries untouched.
func TestShootdownASIDIsolation(t *testing.T) {
	m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 1, Tenants: 2,
		Quantum: 1_000, Shootdown: ShootdownFlushASID})
	if err != nil {
		t.Fatal(err)
	}
	bufs := multiBuffers(t, 2, 11, 40_000)
	if err := runTenants(m, readers(bufs, nil), 40_000); err != nil {
		t.Fatal(err)
	}

	lltBefore := tlbKeysByASID(m.LLT())
	dtlbBefore := tlbKeysByASID(m.cores[0].dtlb)
	if len(lltBefore[0]) == 0 || len(lltBefore[1]) == 0 {
		t.Fatalf("warmup left an empty ASID in the LLT: %d/%d", len(lltBefore[0]), len(lltBefore[1]))
	}

	m.shootdown(m.tenants[1])

	lltAfter := tlbKeysByASID(m.LLT())
	if len(lltAfter[1]) != 0 {
		t.Errorf("%d LLT entries of shot-down tenant 1 survived", len(lltAfter[1]))
	}
	if !reflect.DeepEqual(lltAfter[0], lltBefore[0]) {
		t.Errorf("shootdown of tenant 1 disturbed tenant 0's LLT entries (%d -> %d)",
			len(lltBefore[0]), len(lltAfter[0]))
	}
	dtlbAfter := tlbKeysByASID(m.cores[0].dtlb)
	if len(dtlbAfter[1]) != 0 {
		t.Errorf("%d D-TLB entries of shot-down tenant 1 survived", len(dtlbAfter[1]))
	}
	if !reflect.DeepEqual(dtlbAfter[0], dtlbBefore[0]) {
		t.Errorf("shootdown of tenant 1 disturbed tenant 0's D-TLB entries")
	}
}

// TestShootdownFullFlush: the ASID-oblivious policy drops everything,
// including innocent tenants' entries.
func TestShootdownFullFlush(t *testing.T) {
	m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 2, Tenants: 2,
		Shootdown: ShootdownFullFlush})
	if err != nil {
		t.Fatal(err)
	}
	bufs := multiBuffers(t, 2, 13, 40_000)
	if err := runTenants(m, readers(bufs, nil), 40_000); err != nil {
		t.Fatal(err)
	}
	if tlbCount(m.LLT()) == 0 {
		t.Fatal("warmup left the LLT empty")
	}
	m.shootdown(m.tenants[0])
	if n := tlbCount(m.LLT()); n != 0 {
		t.Errorf("full flush left %d LLT entries", n)
	}
	for c := 0; c < 2; c++ {
		if n := tlbCount(m.cores[c].dtlb); n != 0 {
			t.Errorf("full flush left %d D-TLB entries on core %d", n, c)
		}
		if n := tlbCount(m.cores[c].itlb); n != 0 {
			t.Errorf("full flush left %d I-TLB entries on core %d", n, c)
		}
	}
}

// TestPostShootdownMiss: after an unmap+shootdown, the next touch of the
// page misses the whole TLB hierarchy, triggers a fresh page walk, and
// faults in a different physical frame (the old one is never reissued).
func TestPostShootdownMiss(t *testing.T) {
	m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 1, Tenants: 1,
		Shootdown: ShootdownFlushASID})
	if err != nil {
		t.Fatal(err)
	}
	page := arch.VAddr(1 << 30)
	var accs []trace.Access
	for i := 0; i < 64; i++ {
		accs = append(accs, access(0x400000, page+arch.VAddr(i*64)))
	}
	g := &seqGen{name: "page", list: accs}
	if err := runTenants(m, []trace.Generator{g}, 64); err != nil {
		t.Fatal(err)
	}

	vpn := page.Page()
	tn := m.tenants[0]
	oldPFN, mapped := tn.pt.TranslateIfMapped(vpn)
	if !mapped {
		t.Fatal("page not mapped after warm accesses")
	}
	if _, ok := m.LLT().Probe(vpn); !ok {
		t.Fatal("page not resident in LLT before shootdown")
	}

	if !tn.pt.Unmap(vpn) {
		t.Fatal("unmap of mapped page failed")
	}
	m.shootdown(tn)

	if _, ok := m.LLT().Probe(vpn); ok {
		t.Error("LLT still holds the shot-down translation")
	}
	if _, ok := m.cores[0].dtlb.Probe(vpn); ok {
		t.Error("D-TLB still holds the shot-down translation")
	}

	walksBefore := m.cores[0].walks
	if err := runTenants(m, []trace.Generator{g}, 1); err != nil {
		t.Fatal(err)
	}
	// The single-tenant shootdown flushed the instruction page's
	// translation too, so this access walks twice: once for the PC's
	// page, once for the unmapped data page.
	if m.cores[0].walks != walksBefore+2 {
		t.Errorf("post-shootdown access walked %d times, want 2", m.cores[0].walks-walksBefore)
	}
	newPFN, mapped := tn.pt.TranslateIfMapped(vpn)
	if !mapped {
		t.Fatal("page not remapped by post-shootdown access")
	}
	if newPFN == oldPFN {
		t.Errorf("remapped page reused frame %d", oldPFN)
	}
}

// runMulti measures n accesses and returns the result.
func runMulti(t testing.TB, m *System, gens []trace.Generator, n uint64) Result {
	t.Helper()
	m.StartMeasurement()
	if err := runTenants(m, gens, n); err != nil {
		t.Fatal(err)
	}
	m.Finish()
	return m.Result()
}

// warmMulti builds a full-featured machine (2 cores, 3 tenants, context
// switching, unmap injection, dpPred+cbPred), warms it, and returns the
// machine with its buffers and post-warmup positions.
func warmMulti(t testing.TB, warm uint64) (*System, []*trace.Buffer, []uint64) {
	t.Helper()
	m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 2, Tenants: 3,
		Quantum: 700, Shootdown: ShootdownFlushASID, UnmapEvery: 900})
	if err != nil {
		t.Fatal(err)
	}
	installMultiPreds(t, m)
	bufs := multiBuffers(t, 3, 21, warm+300_000)
	gens := readers(bufs, nil)
	if err := runTenants(m, gens, warm); err != nil {
		t.Fatal(err)
	}
	return m, bufs, positions(gens)
}

// TestMultiForkRefusesInstrumented: the fork refusals of TestForkRefusals
// hold on a multi-core machine, whose shared trackers and per-core metrics
// every core references.
func TestMultiForkRefusesInstrumented(t *testing.T) {
	for name, instrument := range map[string]func(*System) error{
		"accuracy":  (*System).EnableAccuracyTracking,
		"confusion": (*System).EnableConfusionTracking,
		"metrics": func(m *System) error {
			m.AttachMetrics(obs.NewRegistry())
			return nil
		},
	} {
		m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 2, Tenants: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := instrument(m); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Fork(); err == nil {
			t.Errorf("fork with %s attached accepted", name)
		}
	}
}

// TestMultiCheckpointRejectsMismatch: a checkpoint must not restore into a
// machine with different dimensions or scheduling parameters.
func TestMultiCheckpointRejectsMismatch(t *testing.T) {
	m, _, _ := warmMulti(t, 10_000)
	var ck bytes.Buffer
	if err := m.WriteCheckpoint(&ck, "mix"); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*MultiConfig){
		func(c *MultiConfig) { c.Cores = 1 },
		func(c *MultiConfig) { c.Tenants = 2 },
		func(c *MultiConfig) { c.Quantum = 123 },
		func(c *MultiConfig) { c.Shootdown = ShootdownFullFlush },
		func(c *MultiConfig) { c.UnmapEvery = 1 },
	} {
		cfg := m.Config()
		mut(&cfg)
		r, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		installMultiPreds(t, r)
		if _, err := r.ReadCheckpoint(bytes.NewReader(ck.Bytes())); err == nil {
			t.Errorf("mismatched restore accepted for %+v", cfg)
		}
	}
}

// TestMultiDeterminism: two identical 4-core 6-tenant runs — context
// switches (two cores run two tenants each), shootdowns, shared-structure
// contention and all — produce deeply equal results.
func TestMultiDeterminism(t *testing.T) {
	run := func() Result {
		m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 4, Tenants: 6,
			Quantum: 1_000, Shootdown: ShootdownFullFlush, UnmapEvery: 1_500})
		if err != nil {
			t.Fatal(err)
		}
		installMultiPreds(t, m)
		if err := m.EnableAccuracyTracking(); err != nil {
			t.Fatal(err)
		}
		if err := m.EnableConfusionTracking(); err != nil {
			t.Fatal(err)
		}
		bufs := multiBuffers(t, 6, 31, 100_000)
		return runMulti(t, m, readers(bufs, nil), 100_000)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated multi runs diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.Switches == 0 || a.Shootdowns == 0 || a.Unmaps == 0 {
		t.Errorf("stress run did not exercise scheduling: switches=%d shootdowns=%d unmaps=%d",
			a.Switches, a.Shootdowns, a.Unmaps)
	}
}

// TestCheckpointRejectsOutOfRangeSchedule: a checkpoint whose scheduler
// state points outside the machine — a round-robin cursor past the active
// cores, a running tenant past a core's pinned list, a quantum remainder
// outside [1, Quantum] — must fail to decode rather than decode cleanly
// and crash or stall the next run.
func TestCheckpointRejectsOutOfRangeSchedule(t *testing.T) {
	mc := MultiConfig{Machine: smallConfig(), Cores: 2, Tenants: 4, Quantum: 500, Shootdown: ShootdownFlushASID}
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	bufs := multiBuffers(t, 4, 3, 6_000)
	if err := runTenants(m, readers(bufs, nil), 5_000); err != nil {
		t.Fatal(err)
	}
	ck := checkpointBytes(t, m)
	// The sched section: its mark (length-prefixed label), then rr, four
	// counters, and (curTenant, sliceLeft) per core.
	sched := bytes.Index(ck, append(binary.LittleEndian.AppendUint64(nil, 5), "sched"...))
	if sched < 0 {
		t.Fatal("no sched section in the checkpoint")
	}
	sched += 8 + len("sched")
	for _, c := range []struct {
		name string
		off  int
		v    uint64
	}{
		{"round-robin cursor", 0, 7},
		{"running tenant", 5 * 8, 2},
		{"empty quantum", 6 * 8, 0},
		{"quantum overrun", 6 * 8, mc.Quantum + 1},
	} {
		bad := bytes.Clone(ck)
		binary.LittleEndian.PutUint64(bad[sched+c.off:], c.v)
		r, err := NewMulti(mc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s %d accepted", c.name, c.v)
			if err := runTenants(r, readers(bufs, []uint64{1250, 1250, 1250, 1250}), 1_000); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestSingleCoreFeaturesRefuseLargerMachines: the characterization
// samplers, the TLB prefetcher and the observer's tracer and interval
// sampler exist for one core only; on a larger machine they must refuse
// loudly, never act silently on core 0 alone.
func TestSingleCoreFeaturesRefuseLargerMachines(t *testing.T) {
	for name, enable := range map[string]func(*System){
		"characterization": func(s *System) { s.EnableCharacterization(0) },
		"prefetcher":       func(s *System) { s.SetTLBPrefetcher(&pred.DistancePrefetcher{}) },
		"observer":         func(s *System) { s.AttachObserver(&obs.Observer{Interval: obs.NewIntervalRecorder(100)}) },
	} {
		m, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 2, Tenants: 2})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a 2-core machine did not refuse", name)
				}
			}()
			enable(m)
		}()
	}
}
