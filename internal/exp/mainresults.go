package exp

// figure9 compares TLB dead-page predictors: AIP-TLB, SHiP-TLB, dpPred and
// an iso-storage LLT, all normalized to the Table I baseline.
func figure9() table {
	return ipcTable("Figure 9", "Normalized IPC for TLB dead page predictors",
		[]Setup{AIPTLBSetup(), SHiPTLBSetup(), DPPredSetup(), IsoStorageSetup()})
}

// Table4 reports LLT MPKI reductions for the Figure 9 predictors plus the
// approximate oracle.
func Table4(r *Runner) (Series, error) { return r.series(table4()) }

func table4() table {
	return versus("Table IV", "LLT MPKI reductions by dead page predictors",
		"% LLT MPKI reduction vs baseline",
		[]Setup{AIPTLBSetup(), SHiPTLBSetup(), DPPredSetup(), IsoStorageSetup(), OracleSetup()},
		[]string{"AIP-TLB", "SHiP-TLB", "dpPred", "Iso-TLB", "Oracle"},
		lltMPKIReduction, "mean")
}

// figure10 compares LLC dead-block predictors and combined TLB+LLC
// configurations against the paper's dpPred+cbPred proposal.
func figure10() table {
	return ipcTable("Figure 10",
		"Normalized IPC for LLC dead block predictors or LLC and TLB combined predictors",
		[]Setup{AIPLLCSetup(), SHiPLLCSetup(), AIPBothSetup(), SHiPBothSetup(), DPPredCBPredSetup()})
}

// table5 reports LLC MPKI reductions for AIP-LLC, SHiP-LLC and cbPred
// (coupled with dpPred).
func table5() table {
	return versus("Table V", "LLC MPKI reductions by dead block predictors",
		"% LLC MPKI reduction vs baseline",
		[]Setup{AIPLLCSetup(), SHiPLLCSetup(), DPPredCBPredSetup()},
		[]string{"AIP-LLC", "SHiP-LLC", "cbPred"},
		llcMPKIReduction, "mean")
}
