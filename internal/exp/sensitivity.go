package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/sim"
)

// lltSizeConfig builds a Table I machine with a resized LLT.
func lltSizeConfig(entries int) func() sim.Config {
	return func() sim.Config {
		cfg := sim.DefaultConfig()
		cfg.LLT.Entries = entries
		cfg.LLT.Ways = 8
		return cfg
	}
}

// figure11a studies dpPred across LLT sizes (512/1024/1536 entries); each
// column is normalized to the baseline of the same size.
func figure11a() table {
	var pairs [][2]Setup
	var cols []string
	for _, n := range []int{512, 1024, 1536} {
		cfgFn := lltSizeConfig(n)
		pairs = append(pairs, [2]Setup{
			{Name: fmt.Sprintf("base-llt%d", n), Config: cfgFn},
			{Name: fmt.Sprintf("dpPred-llt%d", n), Config: cfgFn, TLB: newDPPred},
		})
		cols = append(cols, fmt.Sprintf("%d entries", n))
	}
	return pairedIPCTable("Figure 11a", "Performance of dpPred for different TLB sizes", pairs, cols)
}

// dpPredVariant builds a dpPred setup with a custom pHIST geometry or
// shadow size.
func dpPredVariant(name string, mutate func(*core.DPPredConfig)) Setup {
	return Setup{
		Name: name,
		TLB: func(s *sim.System) (pred.TLBPredictor, error) {
			cfg := core.DefaultDPPredConfig(s.LLT().Entries())
			mutate(&cfg)
			return core.NewDPPred(cfg)
		},
	}
}

// figure11b studies the pHIST indexing function: 6-bit PC × 5-bit VPN
// (2048 entries), the default 6 × 4 (1024 entries), and a PC-only 10-bit
// index (1024 entries).
func figure11b() table {
	return ipcTable("Figure 11b", "Performance of dpPred for different history table configurations",
		[]Setup{
			dpPredVariant("dpPred-6pc5vpn", func(c *core.DPPredConfig) { c.VPNBits = 5 }),
			DPPredSetup(),
			dpPredVariant("dpPred-10pc", func(c *core.DPPredConfig) { c.PCBits, c.VPNBits = 10, 0 }),
		},
		"6b PC, 5b VPN", "6b PC, 4b VPN", "10b PC")
}

// figure11c studies the shadow-table size (2 vs 4 entries).
func figure11c() table {
	return ipcTable("Figure 11c", "Performance of dpPred for different shadow table sizes",
		[]Setup{DPPredSetup(), dpPredVariant("dpPred-sh4", func(c *core.DPPredConfig) { c.ShadowEntries = 4 })},
		"2-entry shadow", "4-entry shadow")
}

// cbPredVariant builds a dpPred+cbPred setup with a custom PFQ size.
func cbPredVariant(name string, pfq int) Setup {
	return Setup{
		Name: name,
		TLB:  newDPPred,
		LLC: func(s *sim.System) (pred.LLCPredictor, error) {
			cfg := core.DefaultCBPredConfig(s.LLC().Capacity())
			cfg.PFQEntries = pfq
			return core.NewCBPred(cfg)
		},
	}
}

// figure11d studies the PFQ size (8 vs 64 entries).
func figure11d() table {
	return ipcTable("Figure 11d", "Performance of cbPred for different PFQ sizes",
		[]Setup{DPPredCBPredSetup(), cbPredVariant("dpPred+cbPred-pfq64", 64)},
		"8-entry PFQ", "64-entry PFQ")
}

// llcSizeConfig builds a Table I machine with a resized LLC.
func llcSizeConfig(sizeKB int) func() sim.Config {
	return func() sim.Config {
		cfg := sim.DefaultConfig()
		cfg.LLC.SizeKB = sizeKB
		return cfg
	}
}

// figure11e studies dpPred+cbPred across LLC sizes (2 MB vs 3 MB); each
// column is normalized to the baseline with the same LLC.
func figure11e() table {
	var pairs [][2]Setup
	for _, kb := range []int{2048, 3072} {
		cfgFn := llcSizeConfig(kb)
		pairs = append(pairs, [2]Setup{
			{Name: fmt.Sprintf("base-llc%d", kb), Config: cfgFn},
			{Name: fmt.Sprintf("dpPred+cbPred-llc%d", kb), Config: cfgFn, TLB: newDPPred, LLC: newCBPred},
		})
	}
	return pairedIPCTable("Figure 11e", "Performance with dpPred and cbPred for different LLC sizes",
		pairs, []string{"2 MB/core", "3 MB/core"})
}

// srripConfig builds a machine with SRRIP in the LLT and optionally the LLC.
func srripConfig(llc bool) func() sim.Config {
	return func() sim.Config {
		cfg := sim.DefaultConfig()
		cfg.LLT.Policy = policy.SRRIP{}
		if llc {
			cfg.LLC.Policy = policy.SRRIP{}
		}
		return cfg
	}
}

// figure11f studies the predictors on top of SRRIP replacement. All four
// bars are normalized to the LRU baseline, as in the paper:
//
//	SRRIP LLT          — SRRIP in the LLT only
//	SRRIP dpPred       — dpPred on top of an SRRIP LLT
//	SRRIP LLT+LLC      — SRRIP in both structures
//	SRRIP cbPred       — dpPred+cbPred on top of SRRIP LLT+LLC
func figure11f() table {
	return ipcTable("Figure 11f", "Performance of cbPred and dpPred when using SRRIP",
		[]Setup{
			{Name: "srrip-llt", Config: srripConfig(false)},
			{Name: "srrip-dpPred", Config: srripConfig(false), TLB: newDPPred},
			{Name: "srrip-llt-llc", Config: srripConfig(true)},
			{Name: "srrip-cbPred", Config: srripConfig(true), TLB: newDPPred, LLC: newCBPred},
		},
		"SRRIP LLT", "SRRIP dpPred", "SRRIP LLT+LLC", "SRRIP cbPred")
}
