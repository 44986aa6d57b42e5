// Package sim wires the substrates into the paper's full machine: split L1
// TLBs over a unified L2 TLB (the LLT), a radix page walker with page-walk
// caches whose PTE fetches traverse the data caches, a three-level
// inclusive cache hierarchy, and the timing core. Predictors plug into the
// LLT and LLC fill/evict paths exactly at the hook points Figures 6 and 8
// describe; instruments (accuracy mirrors, dead-entry samplers, the Table
// III correlation tracker, histograms, the tracer) observe the same events
// through one seam (instrument.go).
//
// The machine is N cores over a shared LLT and LLC, time-multiplexing M
// tenant address spaces (DESIGN.md §15). The paper's machine is its plain
// case, one core running one tenant, which New builds.
package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/pagetable"
	"repro/internal/pred"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// System is the simulated machine: N cores with private L1 TLBs, L1D/L2
// caches and timing cores over a shared LLT and a shared inclusive LLC,
// running M tenant address spaces over one physical memory. Scheduling is
// a deterministic round-robin: cores advance in core order, and each core
// rotates through its pinned tenants on a fixed access quantum, so a run
// is a pure function of (MultiConfig, generators).
//
// With one core and one tenant every moving part degenerates to the
// paper's machine: the ASID key is zero (VPN keys unchanged), no context
// switch or shootdown ever fires, and the shared LLT and LLC are the one
// core's own.
type System struct {
	cfg MultiConfig

	cores   []*proc
	tenants []*tenantState

	alloc *pagetable.Allocator
	llt   *tlb.TLB
	llc   *cache.Cache

	tlbPred pred.TLBPredictor
	llcPred pred.LLCPredictor

	// Scheduling state.
	coreTenants [][]int  // tenant indices pinned to each core
	curTenant   []int    // index into coreTenants[c] of the running tenant
	sliceLeft   []uint64 // accesses left in the running tenant's quantum
	active      []int    // cores with at least one tenant, in core order
	rr          int      // next entry of active to step

	// Machine-level counters and their measurement baseline.
	counts, base schedCounts

	// conf is the shared confusion mirrors (nil unless
	// EnableConfusionTracking ran). They mirror the shared LLT/LLC, so one
	// instance is every core's instrument; Result reports their counts.
	conf *confusionMirrors

	// Run scratch, kept so a warm run allocates nothing: one chunk cursor
	// per tenant, each tenant's draw for the current run, and the
	// schedule replay's copies of the per-core cursors.
	cur        []cursor
	quota      []uint64
	quotaTen   []int
	quotaSlice []uint64
}

// schedCounts are the machine-level counters: accesses run, context
// switches, shootdowns, TLB entries they flushed, and unmaps.
type schedCounts struct {
	steps, switches, shootdowns, shootdownFlushed, unmaps uint64
}

// cursor is one tenant's position in the chunk it is consuming.
type cursor struct {
	src     chunkSource
	scratch trace.Chunk
	c       trace.Chunk
	off     int
	left    uint64 // accesses still to draw from the generator
}

// New builds the paper's machine, one core running one tenant, with null
// predictors.
func New(cfg Config) (*System, error) {
	return NewMulti(MultiConfig{Machine: cfg, Cores: 1, Tenants: 1})
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewMulti builds the machine mc describes, with null predictors.
func NewMulti(mc MultiConfig) (*System, error) {
	if err := mc.validate(); err != nil {
		return nil, err
	}
	cfg := mc.Machine
	cfg.L1ITLB.Pool, cfg.L1DTLB.Pool, cfg.LLT.Pool, cfg.PWC.Pool = mc.Pool, mc.Pool, mc.Pool, mc.Pool
	s := &System{cfg: mc, tlbPred: pred.NullTLB{}, llcPred: pred.NullLLC{}}

	var err error
	if s.llt, err = tlb.New(cfg.LLT); err != nil {
		return nil, err
	}
	if s.llc, err = newCache(cfg.LLC, mc.Pool); err != nil {
		return nil, err
	}
	if s.alloc, err = pagetable.NewAllocator(cfg.PhysMemMB<<20/arch.PageSize, cfg.Alloc, cfg.Seed); err != nil {
		return nil, err
	}

	// Tenants draw page-table frames from the one shared allocator in
	// tenant order; tenant 0's root is the allocator's first frame.
	s.tenants = make([]*tenantState, mc.Tenants)
	s.coreTenants = make([][]int, mc.Cores)
	for t := range s.tenants {
		pt, err := pagetable.NewPooled(s.alloc, mc.Pool)
		if err != nil {
			return nil, err
		}
		c := t % mc.Cores
		s.tenants[t] = &tenantState{
			asidKey: uint64(t) << arch.VPNBits,
			core:    c,
			pt:      pt,
		}
		s.coreTenants[c] = append(s.coreTenants[c], t)
	}

	s.cores = make([]*proc, mc.Cores)
	s.curTenant = make([]int, mc.Cores)
	s.sliceLeft = make([]uint64, mc.Cores)
	for c := range s.cores {
		p, err := newProc(cfg, mc.Pool, s.llt, s.llc, s.tenants[s.runningTenant(c)])
		if err != nil {
			return nil, err
		}
		s.cores[c] = p
		s.sliceLeft[c] = mc.Quantum
		if len(s.coreTenants[c]) > 0 {
			s.active = append(s.active, c)
		}
	}
	s.wireBackInvalidation()
	s.allocRunScratch()
	return s, nil
}

// Release returns the storage of every cache, TLB and page table of the
// machine to its pool (MultiConfig.Pool) and reports true; afterwards any access to the
// machine panics, so a stale reference can never read the state of the
// machine the storage goes to next. A machine with an observer or metrics
// attached keeps its storage and reports false: their probes and joins
// read its structures after the run. Results already taken stay valid.
func (s *System) Release() bool {
	if _, published := s.instrumented(); published {
		return false
	}
	s.llt.Release()
	s.llc.Release()
	for _, p := range s.cores {
		p.itlb.Release()
		p.dtlb.Release()
		p.l1d.Release()
		p.l2.Release()
		p.walk.Release()
	}
	for _, t := range s.tenants {
		t.pt.Release()
	}
	return true
}

// allocRunScratch sizes the run scratch for the machine's topology.
func (s *System) allocRunScratch() {
	s.cur = make([]cursor, len(s.tenants))
	s.quota = make([]uint64, len(s.tenants))
	s.quotaTen = make([]int, len(s.cores))
	s.quotaSlice = make([]uint64, len(s.cores))
}

// runningTenant returns the index of the tenant core c runs. An idle core
// (no pinned tenant) still needs a bound address space for its walker; it
// never steps, so tenant 0's is as good as any.
func (s *System) runningTenant(c int) int {
	if lst := s.coreTenants[c]; len(lst) > 0 {
		return lst[s.curTenant[c]]
	}
	return 0
}

// wireBackInvalidation makes inclusive-LLC back-invalidation reach every
// core's inner caches. A single core keeps its local default (invalidate
// its own L2/L1D).
func (s *System) wireBackInvalidation() {
	if len(s.cores) == 1 {
		return
	}
	for _, p := range s.cores {
		p.backInv = s.backInvalidate
	}
}

// backInvalidate drops a block evicted from the shared inclusive LLC from
// every core's inner caches.
func (s *System) backInvalidate(key uint64) {
	for _, p := range s.cores {
		p.l2.Invalidate(key)
		p.l1d.Invalidate(key)
	}
}

// singleCore panics unless the machine has one core: feature names a
// single-core-only feature that must never act silently on core 0 of a
// larger machine.
func (s *System) singleCore(feature string) {
	if len(s.cores) != 1 {
		panic(fmt.Sprintf("sim: %s needs a single-core machine (this one has %d cores)", feature, len(s.cores)))
	}
}

// LLT exposes the shared last-level TLB (predictor constructors need its
// backing structure).
func (s *System) LLT() *tlb.TLB { return s.llt }

// LLC exposes the shared last-level cache.
func (s *System) LLC() *cache.Cache { return s.llc }

// Config returns the machine configuration.
func (s *System) Config() MultiConfig { return s.cfg }

// SetTLBPredictor installs one LLT predictor instance shared by every core
// (the LLT it guards is shared; nil restores the baseline).
func (s *System) SetTLBPredictor(p pred.TLBPredictor) {
	if p == nil {
		p = pred.NullTLB{}
	}
	s.tlbPred = p
	s.installPredictors()
}

// SetLLCPredictor installs one LLC predictor instance shared by every core
// (nil restores the baseline). Any predictor but the null one reads and
// writes LLC entries, so the LLC keeps its payload from then on.
func (s *System) SetLLCPredictor(p pred.LLCPredictor) {
	if p == nil {
		p = pred.NullLLC{}
	}
	if _, null := p.(pred.NullLLC); !null {
		s.llc.KeepPayload()
	}
	s.llcPred = p
	s.installPredictors()
}

// installPredictors hands the machine's predictors to every core and to an
// attached observer.
func (s *System) installPredictors() {
	for _, p := range s.cores {
		p.setPredictors(s.tlbPred, s.llcPred)
	}
	s.cores[0].observePredictors()
}

// SetTLBPrefetcher installs a TLB prefetcher (extension; nil disables).
// Prefetched translations are installed in the LLT off the critical path,
// consuming page-walker occupancy but adding no latency to the triggering
// miss. Single-core machines only.
func (s *System) SetTLBPrefetcher(p pred.TLBPrefetcher) {
	s.singleCore("the TLB prefetcher")
	s.cores[0].tlbPref = p
}

// EnableAccuracyTracking creates one pair of mirrors over the shared LLT
// and LLC that grade fill-time DOA predictions (§VI-C), and attaches them
// to every core. One mirror per shared structure is the only correct
// shape: per-core mirrors would each see a fraction of the interleaved
// stream and diverge from the real shared contents.
func (s *System) EnableAccuracyTracking() error {
	m, err := newMirrors(s.cfg.Machine, s.llt, s.llc)
	if err != nil {
		return err
	}
	acc := &accuracyMirrors{m}
	for _, p := range s.cores {
		p.instrument(func(c *instruments) { c.acc = acc })
	}
	return nil
}

// EnableConfusionTracking creates the shared ground-truth confusion
// mirrors (true-dead / premature / missed grading) over the shared LLT
// and LLC, attached to every core like the accuracy mirrors; Result
// reports their counts.
func (s *System) EnableConfusionTracking() error {
	m, err := newMirrors(s.cfg.Machine, s.llt, s.llc)
	if err != nil {
		return err
	}
	s.conf = &confusionMirrors{m}
	for _, p := range s.cores {
		p.instrument(func(c *instruments) {
			c.conf = s.conf
			// The new mirrors count from zero: an interval sampler that
			// read the mirrors they replace takes its next confusion
			// deltas from zero too, instead of wrapping below it.
			if c.ivl != nil {
				c.ivl.base.lltConf, c.ivl.base.llcConf = stats.Confusion{}, stats.Confusion{}
			}
		})
	}
	return nil
}

// TrackEntryTimes makes the shared LLT and LLC keep a generation record
// per way (cache.Gen: fill time, last-hit time, exact hit count), which
// the §IV samplers and the lifetime histograms read. The records must
// cover the whole run, warmup included, so it fails once the machine has
// filled either structure; call it right after building. The private
// structures never keep records.
func (s *System) TrackEntryTimes() error { return s.cores[0].trackTimes() }

// trackTimes makes the shared LLT and LLC that p reaches keep generation
// records.
func (p *proc) trackTimes() error {
	if err := p.llt.Inner().TrackTimes(); err != nil {
		return err
	}
	return p.llc.TrackTimes()
}

// EnableCharacterization creates the §IV dead-entry samplers and the
// Table III correlation tracker. sampleEvery is the number of data
// accesses between residency snapshots (0 keeps the default, 50,000). The
// samplers read entry times, so the machine must track them from its
// first access (TrackEntryTimes); otherwise it is an error. Single-core
// machines only.
func (s *System) EnableCharacterization(sampleEvery uint64) error {
	s.singleCore("characterization")
	if !s.llt.Inner().TracksTimes() || !s.llc.TracksTimes() {
		return fmt.Errorf("sim: characterization needs a machine that tracks entry times from its first access (TrackEntryTimes)")
	}
	if sampleEvery == 0 {
		sampleEvery = 50_000
	}
	char := &characterization{llt: stats.NewDeadSampler(), llc: stats.NewDeadSampler(),
		corr: stats.NewDOACorrelation(), period: sampleEvery}
	s.cores[0].instrument(func(c *instruments) { c.char = char })
	return nil
}

// instrumented reports whether instruments are attached to the machine,
// and whether one is published: an observer or a metrics registry whose
// probes read the machine's structures after the run. Fork and
// WriteCheckpoint refuse an instrumented machine (its instruments hold
// references into the live run); Release keeps a published one's storage.
// Every instrument reaches core 0.
func (s *System) instrumented() (attached, published bool) {
	c := s.cores[0].inst
	return c != nil, c != nil && c.published
}

// StartMeasurement marks the end of warmup on every core and for the
// machine-level counters: Result reports only activity after this point.
// Instrumentation enabled earlier keeps accumulating; enable it just before
// calling this to scope it to the measured region.
func (s *System) StartMeasurement() {
	for _, p := range s.cores {
		p.base = p.snap()
	}
	s.base = s.counts
}

// Finish resolves end-of-run instrumentation: samplers flush residents,
// the confusion mirrors grade entries still resident, and the correlation
// tracker classifies pages still in the LLT. The samplers exist only on a
// single core, and the mirrors are either shared by every core or a single
// core's own, so core 0's composite reaches each exactly once.
func (s *System) Finish() {
	if p := s.cores[0]; p.inst != nil {
		p.inst.finish(p)
	}
}
