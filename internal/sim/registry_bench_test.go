package sim

import (
	"testing"

	"repro/internal/pred"
)

// BenchmarkRegistryDispatch measures the warm run path with the paper's
// TLB predictor resolved and constructed through the registry instead of a
// direct constructor call. Registry dispatch happens once, at construction;
// this benchmark pins that registry-built predictors add no indirection to
// the hot loop — it must track BenchmarkStepObserverDisabled (~170 ns/op),
// and the CI benchstat gate fails the build if it regresses.
func BenchmarkRegistryDispatch(b *testing.B) {
	reg, err := pred.Lookup("dpPred")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	s := MustNew(cfg)
	p, err := reg.NewTLB(s.LLT().Inner())
	if err != nil {
		b.Fatal(err)
	}
	s.SetTLBPredictor(p)
	g := obsTestMix(b, 3)
	if err := s.Run(g, 100_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(g, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRegistryLookupConstruct measures the cold path: name resolution
// plus predictor construction over the Table I LLT. This runs once per
// grid cell, so it only needs to stay far off the per-access scale.
func BenchmarkRegistryLookupConstruct(b *testing.B) {
	cfg := DefaultConfig()
	s := MustNew(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := pred.Lookup("dpPred")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reg.NewTLB(s.LLT().Inner()); err != nil {
			b.Fatal(err)
		}
	}
}
