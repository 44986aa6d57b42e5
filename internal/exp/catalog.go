package exp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pred"
)

// The setup catalog maps every standard setup name — everything the
// experiment suite (figures, tables, sensitivity, ablations, extensions,
// the registry arena) can put in a grid — back to its exact construction.
// It is what lets a cell cross a process boundary: Setup carries closures
// (Config, TLB, LLC, Prefetch) that cannot be serialized, but its Name
// already contracts to identify the full behavior (the in-process memo is
// name-keyed), so a worker that resolves the name through the same catalog
// rebuilds a bit-identical machine. Setups outside the catalog — tests'
// ad-hoc constructions — simply stay local: the coordinator's executor
// declines them and the runner falls back to in-process simulation.

var (
	catalogOnce sync.Once
	catalogMap  map[string]Setup
)

// buildCatalog assembles the name → Setup map from the same constructors
// the experiment functions use, so catalog and experiments cannot drift.
func buildCatalog() {
	catalogMap = make(map[string]Setup)
	add := func(setups ...Setup) {
		for _, s := range setups {
			if _, ok := catalogMap[s.Name]; ok {
				panic(fmt.Sprintf("exp: duplicate catalog setup %q", s.Name))
			}
			catalogMap[s.Name] = s
		}
	}

	// Baseline and characterization.
	add(Baseline(), characterizationSetup())

	// Every registered predictor (the arena), resolved exactly as
	// Table4Extended and the historical constructors do. This covers
	// dpPred, dpPred+cbPred, AIP/SHiP on both sides, and all competitors.
	for _, name := range pred.Names() {
		su, err := SetupFor(name)
		if err != nil {
			panic(err) // registered names must resolve
		}
		add(su)
	}

	// Combined and special configurations of the main results.
	add(AIPBothSetup(), SHiPBothSetup(), IsoStorageSetup(), OracleSetup())

	// Accuracy-table variants with non-default predictor configs.
	add(dpPredNoShadowSetup(), cbPredNoPFQSetup())

	// Sensitivity sweeps (Figure 11).
	for _, n := range []int{512, 1024, 1536} {
		cfgFn := lltSizeConfig(n)
		add(Setup{Name: fmt.Sprintf("base-llt%d", n), Config: cfgFn},
			Setup{Name: fmt.Sprintf("dpPred-llt%d", n), Config: cfgFn, TLB: newDPPred})
	}
	add(dpPredVariant("dpPred-6pc5vpn", func(c *core.DPPredConfig) { c.VPNBits = 5 }),
		dpPredVariant("dpPred-10pc", func(c *core.DPPredConfig) { c.PCBits, c.VPNBits = 10, 0 }),
		dpPredVariant("dpPred-sh4", func(c *core.DPPredConfig) { c.ShadowEntries = 4 }),
		cbPredVariant("dpPred+cbPred-pfq64", 64))
	for _, kb := range []int{2048, 3072} {
		cfgFn := llcSizeConfig(kb)
		add(Setup{Name: fmt.Sprintf("base-llc%d", kb), Config: cfgFn},
			Setup{Name: fmt.Sprintf("dpPred+cbPred-llc%d", kb), Config: cfgFn, TLB: newDPPred, LLC: newCBPred})
	}
	add(Setup{Name: "srrip-llt", Config: srripConfig(false)},
		Setup{Name: "srrip-dpPred", Config: srripConfig(false), TLB: newDPPred},
		Setup{Name: "srrip-llt-llc", Config: srripConfig(true)},
		Setup{Name: "srrip-cbPred", Config: srripConfig(true), TLB: newDPPred, LLC: newCBPred})

	// Extensions and ablations.
	add(distancePrefetchSetup(), dpPredPrefetchSetup(), dipLLTSetup(), dipDPPredSetup())
	for _, th := range []uint8{2, 4, 6} {
		add(thresholdSetup(th))
	}
	for _, bits := range []uint{2, 3, 4} {
		add(counterBitsSetup(bits))
	}
}

// ResolveSetup rebuilds a standard setup from its name. A trailing "+acc"
// resolves the base name and enables mirror-structure accuracy grading,
// exactly as withAccuracy does for the Table VI/VII grids. ok=false means
// the name is not in the catalog (an ad-hoc test setup) and the cell must
// run wherever the Setup value lives.
func ResolveSetup(name string) (Setup, bool) {
	catalogOnce.Do(buildCatalog)
	if base, found := strings.CutSuffix(name, "+acc"); found {
		su, ok := catalogMap[base]
		if !ok {
			return Setup{}, false
		}
		return withAccuracy(su), true
	}
	su, ok := catalogMap[name]
	return su, ok
}
