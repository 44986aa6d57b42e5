package sim

import (
	"testing"

	"repro/internal/trace"
)

// benchMulti warms a machine and returns it with infinite per-tenant
// generators, ready for a steady-state run.
func benchMulti(b *testing.B, mc MultiConfig) (*System, []trace.Generator) {
	b.Helper()
	m, err := NewMulti(mc)
	if err != nil {
		b.Fatal(err)
	}
	installMultiPreds(b, m)
	gens := make([]trace.Generator, mc.Tenants)
	for i := range gens {
		gens[i] = obsTestMix(b, uint64(i)+3)
	}
	if err := runTenants(m, gens, 200_000); err != nil {
		b.Fatal(err)
	}
	return m, gens
}

// BenchmarkMultiCoreStep is the multi-machine counterpart of
// BenchmarkStepWarm: steady-state per-access cost on a warm 4-core
// 4-tenant machine with the dpPred+cbPred pair. The access path must stay
// allocation-free.
func BenchmarkMultiCoreStep(b *testing.B) {
	m, gens := benchMulti(b, MultiConfig{Machine: DefaultConfig(), Cores: 4, Tenants: 4,
		Quantum: 10_000, Shootdown: ShootdownFlushASID})
	b.ReportAllocs()
	b.ResetTimer()
	if err := runTenants(m, gens, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSharedLLTContention stresses the shared LLT with a deliberately
// undersized geometry (128 entries for 4 tenants' working sets plus
// ASID-targeted shootdowns), the configuration where cross-tenant eviction
// and flush traffic dominates.
func BenchmarkSharedLLTContention(b *testing.B) {
	cfg := DefaultConfig()
	cfg.LLT.Entries = 128
	m, gens := benchMulti(b, MultiConfig{Machine: cfg, Cores: 4, Tenants: 4,
		Quantum: 2_000, Shootdown: ShootdownFlushASID, UnmapEvery: 5_000})
	b.ReportAllocs()
	b.ResetTimer()
	if err := runTenants(m, gens, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}
