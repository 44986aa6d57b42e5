package exp

// Registry-driven setups: the experiment layer derives its setup lists
// from the predictor registry (internal/pred) instead of hardcoding one
// constructor per competitor, so a newly registered predictor appears in
// the extended Table IV, the CLIs and the differential harness without
// touching this package. The historical *Setup() constructors in runner.go
// are thin wrappers over SetupFor and keep their exact names and
// warm-state keys, which is what the golden snapshots pin.

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/pred"
	"repro/internal/sim"
)

// warmupKeys pins which setups share a warm-state fork (Setup.WarmupKey).
// The keys are part of the golden results' identity — a setup that gains
// or loses warm-state sharing changes nothing numerically, but the keys
// below predate the registry and are kept exactly as they were; registry
// newcomers warm independently until profiling says sharing pays.
var warmupKeys = map[string]string{
	"baseline":      "baseline",
	"dpPred":        "dpPred",
	"SHiP-TLB":      "SHiP-TLB",
	"SHiP-LLC":      "SHiP-LLC",
	"dpPred+cbPred": "dpPred+cbPred",
}

// SetupFor resolves a registered predictor name (case-insensitively) into
// a runnable Setup on the Table I machine. LLC predictors that need
// DOA-page coupling (cbPred) are automatically paired with dpPred on the
// TLB side, mirroring the paper's §V-B deployment; the setup is then named
// "dpPred+<name>". Unknown names error with the full registered set.
func SetupFor(name string) (Setup, error) {
	reg, err := pred.Lookup(name)
	if err != nil {
		return Setup{}, err
	}
	return setupFromReg(reg)
}

// setupFromReg builds the Setup for one registration.
func setupFromReg(reg pred.Registration) (Setup, error) {
	s := Setup{Name: reg.Name}
	switch reg.Kind {
	case pred.KindTLB:
		s.TLB = func(sys *sim.System) (pred.TLBPredictor, error) {
			return reg.NewTLB(sys.LLT().Inner())
		}
	case pred.KindLLC:
		s.LLC = func(sys *sim.System) (pred.LLCPredictor, error) {
			return reg.NewLLC(sys.LLC())
		}
		if reg.Caps.NeedsDOACoupling {
			dp, err := pred.Lookup("dpPred")
			if err != nil {
				return Setup{}, fmt.Errorf("%s needs DOA-page coupling but its driver is unavailable: %w", reg.Name, err)
			}
			s.Name = "dpPred+" + reg.Name
			s.TLB = func(sys *sim.System) (pred.TLBPredictor, error) {
				return dp.NewTLB(sys.LLT().Inner())
			}
		}
	default:
		return Setup{}, fmt.Errorf("pred: %s: invalid kind %v", reg.Name, reg.Kind)
	}
	s.WarmupKey = warmupKeys[s.Name]
	return s, nil
}

// mustSetup backs the historical fixed-name constructors: these names are
// registered at init, so failure is a programming error.
func mustSetup(name string) Setup {
	s, err := SetupFor(name)
	if err != nil {
		panic(err)
	}
	return s
}

// storageProbeSize is the structure size a registration's budget is
// normalized against: the Table I LLT entry count for TLB predictors, the
// Table I LLC block count for LLC predictors.
func storageProbeSize(reg pred.Registration) int {
	cfg := sim.DefaultConfig()
	if reg.Kind == pred.KindLLC {
		return cfg.LLC.SizeKB * 1024 / arch.BlockSize
	}
	return cfg.LLT.Entries
}

// Arena is the extended Table IV, the arena sweep: the Table IV metric (%
// LLT MPKI reduction vs baseline) across every requested registered
// predictor on identical materialized traces, storage-normalized by two
// footer rows — each column's budget in KB and its mean reduction per KB. A
// nil or empty names list sweeps every registered TLB predictor, sorted by
// name. An unknown name errors with the full registered set.
func Arena(names []string) (Experiment, error) {
	if len(names) == 0 {
		names = pred.TLBNames()
	}
	regs := make([]pred.Registration, len(names))
	setups := make([]Setup, len(names))
	for i, n := range names {
		reg, err := pred.Lookup(n)
		if err != nil {
			return Experiment{}, err
		}
		su, err := setupFromReg(reg)
		if err != nil {
			return Experiment{}, err
		}
		regs[i], setups[i] = reg, su
	}
	t := versus("Table IV+", "LLT MPKI reductions across the predictor arena",
		"% LLT MPKI reduction vs baseline", setups, setupNames(setups), lltMPKIReduction, "mean")
	// Storage normalization: competitors spend very different budgets, so
	// the raw means are not comparable head-to-head. The footers hold each
	// column's budget (KB) and its mean reduction per KB of state.
	t.footers = func(s Series) []SeriesRow {
		storage := make([]float64, len(regs))
		perKB := make([]float64, len(regs))
		for i, reg := range regs {
			kb := float64(reg.StorageBits(storageProbeSize(reg))) / 8192
			storage[i] = kb
			perKB[i] = s.Summary[i] / kb
		}
		return []SeriesRow{
			{Name: "storage (KB)", Values: storage},
			{Name: "mean %/KB", Values: perKB},
		}
	}
	return Experiment{"predictors", "Table IV+ (predictor arena)", t}, nil
}
