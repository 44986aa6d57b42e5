package tlb

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/policy"
	"repro/internal/pool"
)

func llt(t *testing.T) *TLB {
	t.Helper()
	tb, err := New(Config{Name: "LLT", Entries: 1024, Ways: 8, Latency: 8})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Entries: 0, Ways: 4},
		{Entries: 10, Ways: 4}, // not a multiple
		{Entries: 4, Ways: 0},
		{Entries: 2, Ways: 4}, // fewer entries than ways
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestLookupReturnsPFN(t *testing.T) {
	tb := llt(t)
	if _, ok := tb.Lookup(5, 0); ok {
		t.Fatal("hit in empty TLB")
	}
	tb.Fill(5, 777, 0x2a, policy.InsertMRU, 1)
	pfn, ok := tb.Lookup(5, 2)
	if !ok || pfn != 777 {
		t.Fatalf("Lookup = %d,%v; want 777,true", pfn, ok)
	}
}

func TestAccessedBitSemantics(t *testing.T) {
	tb := llt(t)
	tb.Fill(9, 100, 3, policy.InsertMRU, 0)
	b, _ := tb.Probe(9)
	if b.Accessed {
		t.Error("Accessed set at fill; must only be set on a hit (Fig. 6b)")
	}
	if b.PCHash != 3 {
		t.Errorf("PCHash = %d, want 3", b.PCHash)
	}
	tb.Lookup(9, 1)
	if b, _ = tb.Probe(9); !b.Accessed {
		t.Error("Accessed not set after hit (Fig. 6a)")
	}
}

func TestEvictionReturnsVictimMetadata(t *testing.T) {
	tb := MustNew(Config{Name: "tiny", Entries: 2, Ways: 2, Latency: 1})
	tb.Fill(0, 10, 1, policy.InsertMRU, 0)
	tb.Fill(1, 11, 2, policy.InsertMRU, 0)
	tb.Lookup(0, 1) // 1 becomes LRU
	_, victim, evicted := tb.Fill(2, 12, 3, policy.InsertMRU, 2)
	if !evicted || victim.Key != 1 || victim.PCHash != 2 {
		t.Fatalf("victim = %+v (evicted=%v), want key 1, pcHash 2", victim, evicted)
	}
	if victim.Accessed {
		t.Error("victim was never hit; Accessed must be clear (a DOA page)")
	}
}

// TestVictimPreviewMatchesFill: a fill into a clone previews the victim
// the same fill into the original evicts.
func TestVictimPreviewMatchesFill(t *testing.T) {
	tb := MustNew(Config{Name: "tiny", Entries: 4, Ways: 4, Latency: 1})
	for v := arch.VPN(0); v < 4; v++ {
		tb.Fill(v, arch.PFN(v), 0, policy.InsertMRU, uint64(v))
	}
	tb.Lookup(0, 5) // the LRU victim is now 1, not the first fill
	n, err := tb.Clone()
	if err != nil {
		t.Fatal(err)
	}
	_, preview, would := n.Fill(99, 99, 0, policy.InsertMRU, 10)
	if !would || preview.Key != 1 {
		t.Fatalf("preview evicted=%v key %d, want key 1", would, preview.Key)
	}
	_, victim, _ := tb.Fill(99, 99, 0, policy.InsertMRU, 10)
	if victim.Key != preview.Key {
		t.Errorf("preview %d != actual victim %d", preview.Key, victim.Key)
	}
}

func TestInvalidate(t *testing.T) {
	tb := llt(t)
	tb.Fill(33, 44, 0, policy.InsertMRU, 0)
	old, ok := tb.Invalidate(33)
	if !ok || old.Data != 44 {
		t.Fatalf("Invalidate = %+v,%v", old, ok)
	}
	if _, ok := tb.Lookup(33, 1); ok {
		t.Error("hit after invalidate")
	}
}

func TestLatencyAndEntries(t *testing.T) {
	tb := llt(t)
	if tb.Latency() != 8 {
		t.Errorf("Latency = %d, want 8", tb.Latency())
	}
	if tb.Entries() != 1024 {
		t.Errorf("Entries = %d, want 1024", tb.Entries())
	}
}

// Property: a filled translation is retrievable with the same PFN until
// evicted, and misses never fabricate translations.
func TestFillLookupConsistencyProperty(t *testing.T) {
	f := func(vpns []uint16) bool {
		tb := MustNew(Config{Name: "p", Entries: 64, Ways: 4, Latency: 1})
		truth := map[arch.VPN]arch.PFN{}
		for i, raw := range vpns {
			vpn := arch.VPN(raw % 256)
			if pfn, ok := tb.Lookup(vpn, uint64(i)); ok {
				if truth[vpn] != pfn {
					return false
				}
				continue
			}
			pfn := arch.PFN(raw) + 1000
			truth[vpn] = pfn
			tb.Fill(vpn, pfn, 0, policy.InsertMRU, uint64(i))
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TLB stats balance (hits+misses == lookups).
func TestStatsBalanceProperty(t *testing.T) {
	f := func(vpns []uint8) bool {
		tb := MustNew(Config{Name: "p", Entries: 8, Ways: 2, Latency: 1})
		for i, raw := range vpns {
			vpn := arch.VPN(raw % 32)
			if _, ok := tb.Lookup(vpn, uint64(i)); !ok {
				tb.Fill(vpn, arch.PFN(vpn), 0, policy.InsertMRU, uint64(i))
			}
		}
		st := tb.Stats()
		return st.Hits+st.Misses == st.Lookups
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkLLTLookup measures a warm hit in an LLT-geometry TLB (1024
// entries, 8-way): the tag scan, Accessed-bit update and LRU touch.
func BenchmarkLLTLookup(b *testing.B) {
	tb, err := New(Config{Name: "LLT", Entries: 1024, Ways: 8, Latency: 8})
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	for i := 0; i < n; i++ {
		tb.Fill(arch.VPN(i), arch.PFN(i+7), 0, policy.InsertMRU, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(arch.VPN(i&(n-1)), uint64(i)); !ok {
			b.Fatal("warm lookup missed")
		}
	}
}

// TestReleasedTLBPanics: a released TLB has no storage left, so a lookup
// through a stale reference panics.
func TestReleasedTLBPanics(t *testing.T) {
	tb := MustNew(Config{Name: "LLT", Entries: 64, Ways: 4, Latency: 8, Pool: pool.New(1)})
	tb.Fill(5, 9, 0, policy.InsertMRU, 0)
	tb.Release()
	defer func() {
		if recover() == nil {
			t.Error("Lookup on a released TLB did not panic")
		}
	}()
	tb.Lookup(5, 0)
}
