package core

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/xhash"
)

func newDP(t *testing.T) *DPPred {
	t.Helper()
	p, err := NewDPPred(DefaultDPPredConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// evict simulates the LLT evicting an entry for vpn that was filled by pc.
func evict(p *DPPred, vpn arch.VPN, pc uint64, accessed bool) {
	p.OnEvict(cache.Block{
		Key:      uint64(vpn),
		PCHash:   uint16(xhash.PC(pc, 6)),
		Accessed: accessed,
	})
}

func TestNewDPPredValidation(t *testing.T) {
	bad := []DPPredConfig{
		{PCBits: 0, VPNBits: 4, CounterBits: 3, Threshold: 6},
		{PCBits: 17, VPNBits: 4, CounterBits: 3, Threshold: 6},
		{PCBits: 6, VPNBits: 17, CounterBits: 3, Threshold: 6},
		{PCBits: 6, VPNBits: 4, CounterBits: 0, Threshold: 6},
		{PCBits: 6, VPNBits: 4, CounterBits: 3, Threshold: 7}, // unreachable
		{PCBits: 6, VPNBits: 4, CounterBits: 3, Threshold: 6, ShadowEntries: -1},
	}
	for i, cfg := range bad {
		if _, err := NewDPPred(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTrainingToPrediction(t *testing.T) {
	p := newDP(t)
	const pc, vpn = 0x400123, arch.VPN(0x7000)
	// Below threshold: no prediction.
	for i := 0; i < 6; i++ {
		if d := p.OnFill(vpn, 1, pc); d.Bypass || d.PredictDOA {
			t.Fatalf("premature prediction after %d DOA evictions", i)
		}
		evict(p, vpn, pc, false)
	}
	// Counter is now 6; threshold is 6; counter must exceed it.
	if d := p.OnFill(vpn, 1, pc); d.Bypass {
		t.Fatal("prediction at counter == threshold; paper requires counter > threshold")
	}
	evict(p, vpn, pc, false) // counter 7
	d := p.OnFill(vpn, 1, pc)
	if !d.Bypass || !d.PredictDOA {
		t.Fatal("no prediction after counter exceeded threshold")
	}
	if p.Stats().Predictions != 1 {
		t.Errorf("Predictions = %d, want 1", p.Stats().Predictions)
	}
}

func TestCounterSaturates(t *testing.T) {
	p := newDP(t)
	const pc, vpn = 0x400123, arch.VPN(0x7000)
	for i := 0; i < 20; i++ {
		evict(p, vpn, pc, false)
	}
	if c := p.Counter(uint16(xhash.PC(pc, 6)), vpn); c != 7 {
		t.Errorf("counter = %d, want saturation at 7", c)
	}
}

func TestAccessedEvictionClearsCounter(t *testing.T) {
	p := newDP(t)
	const pc, vpn = 0x400123, arch.VPN(0x7000)
	for i := 0; i < 7; i++ {
		evict(p, vpn, pc, false)
	}
	evict(p, vpn, pc, true) // proved alive
	if c := p.Counter(uint16(xhash.PC(pc, 6)), vpn); c != 0 {
		t.Errorf("counter = %d after accessed eviction, want 0", c)
	}
	if p.Stats().Clears != 1 {
		t.Errorf("Clears = %d, want 1", p.Stats().Clears)
	}
}

func TestBypassedTranslationParkedInShadow(t *testing.T) {
	p := newDP(t)
	const pc, vpn = 0x400123, arch.VPN(0x7000)
	for i := 0; i < 7; i++ {
		evict(p, vpn, pc, false)
	}
	d := p.OnFill(vpn, 555, pc)
	if !d.Bypass {
		t.Fatal("expected bypass")
	}
	if p.shadow.Len() != 1 {
		t.Fatalf("shadow has %d entries, want 1", p.shadow.Len())
	}
	// The victim buffer serves the next miss to the same VPN.
	pfn, handled := p.OnMiss(vpn, pc)
	if !handled || pfn != 555 {
		t.Fatalf("OnMiss = %d,%v; want 555,true", pfn, handled)
	}
	// The entry is consumed.
	if _, handled := p.OnMiss(vpn, pc); handled {
		t.Error("shadow entry served twice")
	}
	if p.Stats().ShadowHits != 1 {
		t.Errorf("ShadowHits = %d, want 1", p.Stats().ShadowHits)
	}
}

func TestShadowHitFlushesColumn(t *testing.T) {
	p := newDP(t)
	const vpn = arch.VPN(0x7000)
	// Train two different PCs on the same VPN column.
	pcs := []uint64{0x400123, 0x500456}
	for _, pc := range pcs {
		for i := 0; i < 7; i++ {
			evict(p, vpn, pc, false)
		}
	}
	d := p.OnFill(vpn, 9, pcs[0])
	if !d.Bypass {
		t.Fatal("expected bypass")
	}
	if _, handled := p.OnMiss(vpn, pcs[0]); !handled {
		t.Fatal("expected shadow hit")
	}
	// Negative feedback: the whole column for h(VPN) is flushed.
	for _, pc := range pcs {
		if c := p.Counter(uint16(xhash.PC(pc, 6)), vpn); c != 0 {
			t.Errorf("counter for pc %#x = %d after flush, want 0", pc, c)
		}
	}
	if p.Stats().ColumnFlushes != 1 {
		t.Errorf("ColumnFlushes = %d, want 1", p.Stats().ColumnFlushes)
	}
}

func TestColumnFlushSparesOtherColumns(t *testing.T) {
	p := newDP(t)
	const pc = 0x400123
	// vpnA and vpnB must land in different pHIST columns.
	vpnA, vpnB := arch.VPN(0), arch.VPN(1)
	if xhash.VPN(uint64(vpnA), 4) == xhash.VPN(uint64(vpnB), 4) {
		t.Fatal("test VPNs collide; pick different ones")
	}
	for i := 0; i < 7; i++ {
		evict(p, vpnA, pc, false)
		evict(p, vpnB, pc, false)
	}
	p.OnFill(vpnA, 1, pc) // bypass → shadow
	p.OnMiss(vpnA, pc)    // shadow hit → flush column A
	if c := p.Counter(uint16(xhash.PC(pc, 6)), vpnB); c != 7 {
		t.Errorf("column B counter = %d after flushing column A, want 7", c)
	}
}

func TestShadowDisabledVariant(t *testing.T) {
	cfg := DefaultDPPredConfig(1024)
	cfg.ShadowEntries = 0 // dpPred−SH
	p, err := NewDPPred(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pc, vpn = 0x400123, arch.VPN(0x7000)
	for i := 0; i < 7; i++ {
		evict(p, vpn, pc, false)
	}
	if d := p.OnFill(vpn, 1, pc); !d.Bypass {
		t.Fatal("dpPred−SH should still bypass")
	}
	if _, handled := p.OnMiss(vpn, pc); handled {
		t.Error("dpPred−SH has no victim buffer")
	}
}

// TestDOAPageListenerNotified: a predicted-DOA fill bypasses and predicts
// DOA, the decision on which the simulator announces the frame to the LLC
// side's pred.DOAPageListener (Fig. 6b).
func TestDOAPageListenerNotified(t *testing.T) {
	p := newDP(t)
	const pc, vpn = 0x400123, arch.VPN(0x7000)
	for i := 0; i < 7; i++ {
		evict(p, vpn, pc, false)
	}
	if d := p.OnFill(vpn, 321, pc); !d.Bypass || !d.PredictDOA {
		t.Fatalf("decision %+v, want a bypass predicting DOA", d)
	}
}

func TestPConlyIndexing(t *testing.T) {
	cfg := DefaultDPPredConfig(1024)
	cfg.PCBits, cfg.VPNBits = 10, 0 // the Fig. 11b "10 bit PC" point
	p, err := NewDPPred(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pc = 0x400123
	for i := 0; i < 7; i++ {
		p.OnEvict(cache.Block{Key: uint64(i), PCHash: uint16(xhash.PC(pc, 10)), Accessed: false})
	}
	// Any VPN from this PC is now predicted DOA.
	if d := p.OnFill(arch.VPN(12345), 1, pc); !d.Bypass {
		t.Error("PC-only predictor did not generalize across VPNs")
	}
}

func TestDPPredStorageBitsDefault(t *testing.T) {
	p := newDP(t)
	// §V-D: 896 B per-entry + 384 B pHIST + 26 B shadow = 1306 B.
	if got, want := p.StorageBits(), uint64(1306*8); got != want {
		t.Errorf("StorageBits = %d (%d bytes), want %d bytes", got, got/8, want/8)
	}
}

// Property: dpPred never predicts DOA for a (PC, VPN) pair whose pHIST
// counter has not exceeded the threshold via DOA evictions.
func TestNoSpontaneousPredictionProperty(t *testing.T) {
	f := func(pcs []uint16, vpns []uint16) bool {
		p, err := NewDPPred(DefaultDPPredConfig(1024))
		if err != nil {
			return false
		}
		n := len(pcs)
		if len(vpns) < n {
			n = len(vpns)
		}
		for i := 0; i < n; i++ {
			// Only accessed (non-DOA) evictions: counters stay 0.
			evict(p, arch.VPN(vpns[i]), uint64(pcs[i]), true)
			if d := p.OnFill(arch.VPN(vpns[i]), 1, uint64(pcs[i])); d.Bypass {
				return false
			}
		}
		return p.Stats().Predictions == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: counters stay within the configured width.
func TestCounterWidthProperty(t *testing.T) {
	f := func(events []uint16) bool {
		p, err := NewDPPred(DefaultDPPredConfig(1024))
		if err != nil {
			return false
		}
		for _, e := range events {
			evict(p, arch.VPN(e%64), uint64(e), e%5 == 0)
		}
		for pc := uint16(0); pc < 64; pc++ {
			for v := arch.VPN(0); v < 16; v++ {
				if p.Counter(pc, v) > 7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
