package exp

import (
	"repro/internal/core"
	"repro/internal/pred"
	"repro/internal/sim"
)

// withAccuracy returns a copy of the setup with mirror grading enabled.
func withAccuracy(s Setup) Setup {
	s.Name += "+acc"
	s.Instrument.Accuracy = true
	return s
}

// dpPredNoShadowSetup is dpPred−SH (Table VI): the shadow table disabled.
func dpPredNoShadowSetup() Setup {
	return Setup{
		Name: "dpPred-SH",
		TLB: func(s *sim.System) (pred.TLBPredictor, error) {
			cfg := core.DefaultDPPredConfig(s.LLT().Entries())
			cfg.ShadowEntries = 0
			return core.NewDPPred(cfg)
		},
	}
}

// cbPredNoPFQSetup is cbPred−PF (Table VII): the PFN filter queue disabled,
// so every block trains and consults bHIST.
func cbPredNoPFQSetup() Setup {
	return Setup{
		Name: "dpPred+cbPred-PF",
		TLB:  newDPPred,
		LLC: func(s *sim.System) (pred.LLCPredictor, error) {
			cfg := core.DefaultCBPredConfig(s.LLC().Capacity())
			cfg.UsePFQ = false
			return core.NewCBPred(cfg)
		},
	}
}

// accuracyTable grades each setup's predictions through the mirror
// structures, reading the LLT side or, with llcSide, the LLC side.
func accuracyTable(id, title string, setups []Setup, names []string, llcSide bool) table {
	t := table{id: id, title: title, unit: "%", summary: "mean"}
	for i, su := range setups {
		t.grid = append(t.grid, withAccuracy(su))
		t.cols = append(t.cols, names[i]+" Acc", names[i]+" Cov")
	}
	t.row = func(res []sim.Result) []float64 {
		var out []float64
		for _, r := range res {
			acc := r.LLTAccuracy
			if llcSide {
				acc = r.LLCAccuracy
			}
			out = append(out, 100*acc.Accuracy(), 100*acc.Coverage())
		}
		return out
	}
	return t
}

// table6 grades the dead-page predictors: dpPred, dpPred−SH and SHiP-TLB.
func table6() table {
	return accuracyTable("Table VI", "Accuracy, coverage for dead page predictors",
		[]Setup{DPPredSetup(), dpPredNoShadowSetup(), SHiPTLBSetup()},
		[]string{"dpPred", "dpPred-SH", "SHiP-TLB"}, false)
}

// table7 grades the dead-block predictors: cbPred, cbPred−PF and SHiP-LLC.
func table7() table {
	return accuracyTable("Table VII", "Accuracy, coverage for dead block predictors",
		[]Setup{DPPredCBPredSetup(), cbPredNoPFQSetup(), SHiPLLCSetup()},
		[]string{"cbPred", "cbPred-PF", "SHiP-LLC"}, true)
}
