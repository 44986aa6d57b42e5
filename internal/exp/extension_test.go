package exp

import "testing"

// tinyRunner keeps the extension smoke tests fast; the quickRunner's
// memoized baselines are reused where setups overlap.
func TestExtensionPrefetchShape(t *testing.T) {
	quickGrid(t)
	s, err := experiment(t, "exta").Run(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cols) != 3 || len(s.Rows) != 14 {
		t.Fatalf("grid %dx%d, want 14x3", len(s.Rows), len(s.Cols))
	}
	dp, pf, both := s.Summary[0], s.Summary[1], s.Summary[2]
	if dp <= 1.0 {
		t.Errorf("dpPred geomean %.4f ≤ 1", dp)
	}
	// Low-priority prefetching must never be broadly harmful: it only
	// uses idle walker slots.
	if pf < 0.99 {
		t.Errorf("distance prefetching geomean %.4f; idle-slot prefetching should not hurt", pf)
	}
	// Bypassing beats prefetching overall on this suite (§VII:
	// "prefetching does not perform well across all applications").
	if dp < pf {
		t.Errorf("prefetching geomean %.4f beats dpPred %.4f", pf, dp)
	}
	// The combination should not collapse below either component.
	if both < dp-0.03 || both < pf-0.03 {
		t.Errorf("combination %.4f collapses below components dp=%.4f pf=%.4f", both, dp, pf)
	}
}

func TestExtensionDIPShape(t *testing.T) {
	quickGrid(t)
	s, err := experiment(t, "extb").Run(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	dp, dip, combo := s.Summary[0], s.Summary[1], s.Summary[2]
	if dip <= 0.97 {
		t.Errorf("DIP-LLT geomean %.4f; thrash-resistant insertion should not hurt broadly", dip)
	}
	if combo < dip-0.03 && combo < dp-0.03 {
		t.Errorf("DIP+dpPred %.4f worse than both components (dp %.4f, dip %.4f)", combo, dp, dip)
	}
}

func TestAblationThresholdShape(t *testing.T) {
	quickGrid(t)
	s, err := experiment(t, "abla").Run(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cols) != 3 {
		t.Fatalf("%d columns, want 3", len(s.Cols))
	}
	// Every threshold must still be net-positive; the default (6) must
	// not be badly beaten by more aggressive settings on the geomean.
	for i, v := range s.Summary {
		if v < 0.99 {
			t.Errorf("%s geomean %.4f < 0.99", s.Cols[i], v)
		}
	}
}

func TestAblationCounterBitsShape(t *testing.T) {
	quickGrid(t)
	s, err := experiment(t, "ablb").Run(quickRunner)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Summary {
		if v < 0.99 {
			t.Errorf("%s geomean %.4f < 0.99", s.Cols[i], v)
		}
	}
}
