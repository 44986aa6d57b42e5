package exp

import (
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/sim"
)

// newDIPPolicy returns a fresh DIP instance; DIP carries shared per-
// structure dueling state, so each configured cache needs its own value.
func newDIPPolicy() policy.Policy { return policy.NewDIP() }

// newDistancePrefetcher constructs the classic distance-based TLB
// prefetcher the extension experiments compare against.
func newDistancePrefetcher(s *sim.System) (pred.TLBPrefetcher, error) {
	return pred.NewDistancePrefetcher(pred.DefaultDistancePrefetcherConfig())
}

// distancePrefetchSetup is the prefetcher alone on the Table I machine.
func distancePrefetchSetup() Setup {
	return Setup{Name: "distance-prefetch", Prefetch: newDistancePrefetcher}
}

// dpPredPrefetchSetup combines dpPred bypassing with distance prefetching.
func dpPredPrefetchSetup() Setup {
	return Setup{Name: "dpPred+prefetch", TLB: newDPPred, Prefetch: newDistancePrefetcher}
}

// dipConfig is the Table I machine with a DIP-managed LLT.
func dipConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.LLT.Policy = newDIPPolicy()
	return cfg
}

// dipLLTSetup and dipDPPredSetup are the Extension B configurations.
func dipLLTSetup() Setup    { return Setup{Name: "DIP-LLT", Config: dipConfig} }
func dipDPPredSetup() Setup { return Setup{Name: "DIP+dpPred", Config: dipConfig, TLB: newDPPred} }

// ExtensionPrefetch compares the bypass approach (dpPred) with classic
// distance-based TLB prefetching (Kandiraju & Sivasubramaniam, discussed
// in §VII) and with their combination. The paper argues bypassing is
// complementary to prefetching; this extension experiment quantifies that
// on the same workloads: prefetching attacks *predictable* miss sequences
// (strides, repeating deltas) while bypassing protects resident reuse, so
// the combination should dominate either alone on stride-heavy workloads
// and fall back to dpPred's behaviour on irregular ones.
func ExtensionPrefetch(r *Runner) (Series, error) { return r.series(extensionPrefetch()) }

func extensionPrefetch() table {
	return ipcTable("Extension A", "dpPred vs distance-based TLB prefetching (related work, §VII)",
		[]Setup{DPPredSetup(), distancePrefetchSetup(), dpPredPrefetchSetup()})
}

// ExtensionDIP compares dpPred against the thrash-resistant Dynamic
// Insertion Policy (Qureshi et al., cited in §VII) applied to the LLT, and
// dpPred layered on top of a DIP-managed LLT. DIP resists streaming
// pollution without knowing which entries are dead; dpPred adds the
// dead-entry knowledge.
func ExtensionDIP(r *Runner) (Series, error) { return r.series(extensionDIP()) }

func extensionDIP() table {
	return ipcTable("Extension B", "dpPred vs a DIP-managed LLT",
		[]Setup{DPPredSetup(), dipLLTSetup(), dipDPPredSetup()})
}
