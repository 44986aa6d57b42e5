package exp

import (
	"strings"
	"sync"

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

// buildCatalog assembles the name → Setup map as the union of the grids
// of paperTables (with a "+acc" cell stored under its base name), every
// registered predictor (the arena), resolved as Table4Extended does, and
// the multi-core sweep's topologies, so the catalog holds exactly the
// setups the experiments can plan and cannot drift from them. A name seen
// twice is the same setup; the first wins.
func buildCatalog() {
	catalogMap = make(map[string]Setup)
	add := func(s Setup) {
		if base, ok := strings.CutSuffix(s.Name, "+acc"); ok {
			s.Name, s.Instrument.Accuracy = base, false
		}
		if _, ok := catalogMap[s.Name]; !ok {
			catalogMap[s.Name] = s
		}
	}
	for _, t := range paperTables() {
		for _, s := range t.grid {
			add(s)
		}
	}
	for _, name := range pred.Names() {
		su, err := SetupFor(name)
		if err != nil {
			panic(err) // registered names must resolve
		}
		add(su)
	}
	for _, su := range multiCoreSetups(multiCoreDims, multiCoreDims) {
		add(su)
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
