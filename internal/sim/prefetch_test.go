package sim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/trace"
)

// strideGen emits a perfect page-stride pattern with enough compute
// between misses that the page walker has idle slots — the best case for
// (low-priority) distance prefetching.
type strideGen struct {
	vpn arch.VPN
}

func (g *strideGen) Name() string { return "stride" }
func (g *strideGen) Next() trace.Access {
	g.vpn += 2
	return trace.Access{PC: 0x400000, Addr: g.vpn.Addr(), Gap: 120}
}

func TestDistancePrefetcherCutsStrideWalks(t *testing.T) {
	mk := func(withPref bool) Result {
		s := MustNew(smallConfig())
		if withPref {
			p, err := pred.NewDistancePrefetcher(pred.DefaultDistancePrefetcherConfig())
			if err != nil {
				t.Fatal(err)
			}
			s.SetTLBPrefetcher(p)
		}
		// Touch the pages once first so prefetch targets are mapped
		// (prefetchers never fault in new pages).
		g := &strideGen{vpn: 0x100000}
		if err := s.Run(g, 30_000); err != nil {
			t.Fatal(err)
		}
		g.vpn = 0x100000 // restart the sweep over now-mapped pages
		s.StartMeasurement()
		if err := s.Run(g, 20_000); err != nil {
			t.Fatal(err)
		}
		return s.Result()
	}
	base := mk(false)
	pref := mk(true)
	if pref.Walks >= base.Walks/2 {
		t.Errorf("prefetching left %d walks of %d; stride should be nearly fully covered",
			pref.Walks, base.Walks)
	}
	if pref.IPC <= base.IPC {
		t.Errorf("prefetch IPC %.4f ≤ baseline %.4f", pref.IPC, base.IPC)
	}
}

func TestPrefetchStatsCount(t *testing.T) {
	s := MustNew(smallConfig())
	p, err := pred.NewDistancePrefetcher(pred.DefaultDistancePrefetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetTLBPrefetcher(p)
	g := &strideGen{vpn: 0x200000}
	if err := s.Run(g, 30_000); err != nil {
		t.Fatal(err)
	}
	g.vpn = 0x200000
	if err := s.Run(g, 20_000); err != nil {
		t.Fatal(err)
	}
	issued, useful := s.cores[0].prefFills, s.cores[0].prefUseful
	if issued == 0 {
		t.Fatal("no prefetch fills issued on a perfect stride")
	}
	if useful == 0 {
		t.Error("no prefetch fill was ever hit")
	}
	if useful > issued {
		t.Errorf("useful %d > issued %d", useful, issued)
	}
}

func TestPrefetchDoesNotFaultNewPages(t *testing.T) {
	s := MustNew(smallConfig())
	p, err := pred.NewDistancePrefetcher(pred.DefaultDistancePrefetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetTLBPrefetcher(p)
	g := &strideGen{vpn: 0x300000}
	if err := s.Run(g, 5_000); err != nil {
		t.Fatal(err)
	}
	// The pages mapped around the stride must be exactly the pages
	// demanded: the prefetcher must not allocate beyond the demand stream.
	const demanded = 5_000 // one new page per access on this stride
	mapped := 0
	for v := arch.VPN(0x300000); v < 0x300000+2*demanded+4096; v++ {
		if _, ok := s.tenants[0].pt.TranslateIfMapped(v); ok {
			mapped++
		}
	}
	if mapped != demanded {
		t.Errorf("%d pages mapped for %d demanded; prefetcher faulted pages in", mapped, demanded)
	}
}

func TestPrefetchedEntriesDoNotTrainDPPred(t *testing.T) {
	s := MustNew(smallConfig())
	dp, err := newTestDPPred(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTLBPredictor(dp)
	p, err := pred.NewDistancePrefetcher(pred.DefaultDistancePrefetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetTLBPrefetcher(p)
	g := &strideGen{vpn: 0x400000}
	if err := s.Run(g, 30_000); err != nil {
		t.Fatal(err)
	}
	g.vpn = 0x400000
	if err := s.Run(g, 30_000); err != nil {
		t.Fatal(err)
	}
	// The PC hash 0 row (used by prefetched fills if they trained)
	// must not have been trained by prefetched evictions: we can't
	// observe rows directly here, but the combination must at least
	// keep running correctly and produce bypasses from the demand PCs.
	st := dp.Stats()
	if st.Increments == 0 {
		t.Error("dpPred saw no demand training at all")
	}
}

// newTestDPPred builds a default dpPred for the system's LLT.
func newTestDPPred(s *System) (*core.DPPred, error) {
	return core.NewDPPred(core.DefaultDPPredConfig(s.LLT().Entries()))
}

// kindCounter is a trace sink that counts events by kind.
type kindCounter map[obs.Kind]uint64

func (k kindCounter) WriteEvent(ev obs.Event) error { k[ev.Kind]++; return nil }
func (kindCounter) Close() error                    { return nil }

// TestPrefetchEvictionsReachEveryInstrument: an LLT eviction caused by a
// prefetch fill is an eviction like any other, so the tracer, the LLT
// lifetime histogram and the dead sampler must each see every one the LLT
// counts, whichever fill caused it.
func TestPrefetchEvictionsReachEveryInstrument(t *testing.T) {
	s := MustNew(DefaultConfig())
	characterize(t, s, 0)
	pf, err := pred.NewDistancePrefetcher(pred.DefaultDistancePrefetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetTLBPrefetcher(pf)
	events := kindCounter{}
	reg := obs.NewRegistry()
	s.AttachObserver(&obs.Observer{Tracer: obs.NewTracer(events), Metrics: reg})
	if err := s.Run(materializeWorkload(t, "cactusADM", 1, 300_000).Reader(), 300_000); err != nil {
		t.Fatal(err)
	}
	if s.cores[0].prefFills == 0 {
		t.Fatal("no prefetch fills: the run does not exercise prefetch evictions")
	}
	want := s.LLT().Stats().Evictions
	for name, got := range map[string]uint64{
		"llt_evict events":        events[obs.EvLLTEvict],
		"hist.llt_lifetime count": reg.Histograms()["hist.llt_lifetime"].Count,
		"sampler evictions":       s.Result().LLTDead.Evictions,
	} {
		if got != want {
			t.Errorf("%s = %d, want the LLT's %d evictions", name, got, want)
		}
	}
}
