package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pred"
	"repro/internal/sim"
)

// thresholdSetup is dpPred with a custom prediction threshold (Ablation A).
func thresholdSetup(th uint8) Setup {
	return Setup{
		Name: fmt.Sprintf("dpPred-th%d", th),
		TLB: func(s *sim.System) (pred.TLBPredictor, error) {
			cfg := core.DefaultDPPredConfig(s.LLT().Entries())
			cfg.Threshold = th
			return core.NewDPPred(cfg)
		},
	}
}

// counterBitsSetup is dpPred with a custom pHIST counter width, threshold
// scaled to the top quarter of the counter's range (Ablation B).
func counterBitsSetup(bits uint) Setup {
	return Setup{
		Name: fmt.Sprintf("dpPred-ctr%d", bits),
		TLB: func(s *sim.System) (pred.TLBPredictor, error) {
			cfg := core.DefaultDPPredConfig(s.LLT().Entries())
			cfg.CounterBits = bits
			max := uint8(1<<bits - 1)
			cfg.Threshold = max - max/4 - 1
			return core.NewDPPred(cfg)
		},
	}
}

// ablationThreshold sweeps dpPred's prediction threshold. The paper fixes
// it at 6 (of a 3-bit counter's 0–7 range) and notes for canneal/Triangle
// that "the statically set threshold … turns out to be too conservative";
// this ablation quantifies the trade: lower thresholds raise coverage and
// lower accuracy, risking the wrongful bypasses the shadow table then has
// to absorb.
func ablationThreshold() table {
	var setups []Setup
	var cols []string
	for _, th := range []uint8{2, 4, 6} {
		setups = append(setups, thresholdSetup(th))
		cols = append(cols, fmt.Sprintf("threshold %d", th))
	}
	return ipcTable("Ablation A", "dpPred prediction threshold (paper default: 6)", setups, cols...)
}

// ablationCounterBits sweeps the width of pHIST's saturating counters with
// the threshold scaled proportionally (predict when the counter is in the
// top quarter of its range), isolating the cost of the 3-bit choice §V-D
// budgets for.
func ablationCounterBits() table {
	var setups []Setup
	var cols []string
	for _, bits := range []uint{2, 3, 4} {
		setups = append(setups, counterBitsSetup(bits))
		cols = append(cols, fmt.Sprintf("%d-bit", bits))
	}
	return ipcTable("Ablation B", "pHIST counter width (paper default: 3-bit, threshold 6)", setups, cols...)
}
