// Command deadsim runs one workload on the simulated machine with a chosen
// predictor configuration and prints the resulting statistics.
//
// Usage:
//
//	deadsim -workload cactusADM -tlb dpPred -llc cbPred -n 1000000
//
// Predictor choices resolve through the arena registry (internal/pred):
// any registered name works case-insensitively (-tlb SDBP-TLB, -tlb
// "duel(dpPred,SDBP)", -llc SHiP-LLC, ...), plus "none" and the
// historical short aliases — -tlb {dpPred,SHiP,AIP,oracle}, -llc
// {cbPred,SHiP,AIP}. Unknown names list the registered set. cbPred (and
// any predictor registered with NeedsDOACoupling) requires a bypassing
// TLB-side driver such as dpPred (§V-B).
//
// Multi-core, multi-tenant runs (DESIGN.md §15):
//
//	deadsim -cores 4 -tenants 4 -quantum 10000 -shootdown asid -unmap-every 50000 -tlb dpPred -llc cbPred -accuracy
//
// -cores/-tenants (or a nonzero -unmap-every) select the multi-core
// machine: per-core private L1 TLBs and L1D/L2 over a shared LLT and LLC,
// one address space per tenant (ASID-tagged), round-robin scheduling with
// -quantum accesses per slice, and a page unmap plus TLB shootdown
// (-shootdown asid|full) per tenant every -unmap-every accesses. The
// defaults keep the single-machine path and its output byte-identical.
// -serve, -metrics-out and the checkpoint flags work in this mode; -trace,
// -trace-out, -characterize and the oracle are single-machine only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	// core registers dpPred, cbPred and the tournament duels in the
	// predictor registry at init.
	_ "repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadsim:", err)
		os.Exit(1)
	}
}

// tlbAliases and llcAliases keep the historical short flag values working
// on top of the registry's canonical names.
var (
	tlbAliases = map[string]string{"dppred": "dpPred", "ship": "SHiP-TLB", "aip": "AIP-TLB"}
	llcAliases = map[string]string{"cbpred": "cbPred", "ship": "SHiP-LLC", "aip": "AIP-LLC"}
)

// resolveAlias maps a CLI value to its registry name; unknown values pass
// through so pred.Lookup can resolve exact names or report the registered
// set.
func resolveAlias(name string, aliases map[string]string) string {
	if canonical, ok := aliases[strings.ToLower(name)]; ok {
		return canonical
	}
	return name
}

func run() error {
	var (
		workload  = flag.String("workload", "cactusADM", "Table II workload name (or 'list')")
		traceFile = flag.String("trace", "", "replay a recorded trace file instead of a synthetic workload (looped; any format: DPBF v2 streams, DPTR and DPBF v1 are read into memory; see cmd/tracedump)")
		tlbPred   = flag.String("tlb", "none", "LLT predictor: none, oracle, or a registered name/alias (dpPred, SHiP, AIP, SDBP-TLB, Leeway-TLB, ...)")
		llcPred   = flag.String("llc", "none", "LLC predictor: none or a registered name/alias (cbPred, SHiP, AIP, SDBP-LLC, ...)")
		warmup    = flag.Uint64("warmup", 300_000, "warmup accesses before measurement")
		measure   = flag.Uint64("n", 1_000_000, "measured accesses")
		seed      = flag.Uint64("seed", 1, "workload and allocator seed")
		lltSize   = flag.Int("llt", 1024, "LLT entries (multiple of 8)")
		llcKB     = flag.Int("llckb", 2048, "LLC size in KB")
		accuracy  = flag.Bool("accuracy", false, "grade predictions against mirror ground truth")
		deadScan  = flag.Bool("characterize", false, "sample dead/DOA entry fractions (§IV)")

		cores      = flag.Int("cores", 1, "simulated cores sharing the LLT and LLC (>1 selects the multi-core machine)")
		tenants    = flag.Int("tenants", 1, "tenant address spaces round-robined across cores (>1 selects the multi-core machine)")
		quantum    = flag.Uint64("quantum", 10_000, "context-switch quantum in accesses for cores running several tenants (0 = never switch)")
		shootdown  = flag.String("shootdown", "asid", "TLB shootdown policy on unmap: asid (flush the unmapping tenant's entries) or full (flush everything)")
		unmapEvery = flag.Uint64("unmap-every", 0, "inject one page unmap plus shootdown per tenant every N accesses (0 = never; >0 selects the multi-core machine)")

		ckptOut = flag.String("checkpoint-out", "", "after warmup, write the machine's warm state to file, then measure as usual")
		ckptIn  = flag.String("checkpoint-in", "", "restore warm state from file instead of running warmup")

		traceOut   = flag.String("trace-out", "", "write hook-point event trace to file (JSONL; a .csv extension selects CSV)")
		metricsOut = flag.String("metrics-out", "", "write interval time series and final metrics JSON to file")
		serveAddr  = flag.String("serve", "", "serve live monitoring HTTP endpoints on this address while the run lasts (\":0\" picks a free port)")
		interval   = flag.Uint64("interval", 50_000, "accesses between interval samples (used with -metrics-out)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to file")
	)
	flag.Parse()

	if *workload == "list" {
		for _, w := range trace.Workloads() {
			fmt.Printf("%-10s %-10s %3d MB  %s\n", w.Name, w.Suite, w.FootprintMB, w.Description)
		}
		return nil
	}
	var w trace.Workload
	if *traceFile != "" {
		// Open and validate the trace up front so a missing file or bad
		// header fails the run through the normal error path. A DPBF v2
		// file streams, and a chunk that fails to read or decode latches
		// its error during replay (trace.ErrGenerator), which every drain
		// path (MaterializeContext, System.Run) surfaces instead of silently
		// repeating the last record.
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return err
		}
		g, err := trace.Open(f, info.Size())
		if err != nil {
			return fmt.Errorf("%s: %w", *traceFile, err)
		}
		w = trace.Workload{
			Name:  "trace:" + *traceFile,
			Suite: "recorded",
			New:   func(uint64) trace.Generator { return g },
		}
	} else {
		var err error
		w, err = trace.ByName(*workload)
		if err != nil {
			return err
		}
	}

	cfg := sim.DefaultConfig()
	cfg.LLT.Entries = *lltSize
	cfg.LLC.SizeKB = *llcKB
	cfg.Seed = *seed

	setup := exp.Setup{Name: "cli"}
	tlbBypasses := false // the TLB side can drive DOA-page coupling
	switch strings.ToLower(*tlbPred) {
	case "none":
	case "oracle":
		setup.Oracle = true
	default:
		reg, err := pred.Lookup(resolveAlias(*tlbPred, tlbAliases))
		if err != nil {
			return err
		}
		if reg.Kind != pred.KindTLB {
			return fmt.Errorf("%s is an %v predictor; use -llc", reg.Name, reg.Kind)
		}
		setup.TLB = func(s *sim.System) (pred.TLBPredictor, error) {
			return reg.NewTLB(s.LLT().Inner())
		}
		tlbBypasses = reg.Caps.Bypasses
	}
	if strings.ToLower(*llcPred) != "none" {
		reg, err := pred.Lookup(resolveAlias(*llcPred, llcAliases))
		if err != nil {
			return err
		}
		if reg.Kind != pred.KindLLC {
			return fmt.Errorf("%s is a %v predictor; use -tlb", reg.Name, reg.Kind)
		}
		if reg.Caps.NeedsDOACoupling && !tlbBypasses {
			return fmt.Errorf("%s requires a bypassing DOA-page driver on the TLB side (-tlb dpPred, §V-B)", reg.Name)
		}
		setup.LLC = func(s *sim.System) (pred.LLCPredictor, error) {
			return reg.NewLLC(s.LLC())
		}
	}
	setup.Config = func() sim.Config { return cfg }

	// -cores/-tenants/-unmap-every select the multi-core machine (DESIGN.md
	// §15). The single-machine path is untouched — and byte-identical — at
	// the 1-core, 1-tenant, no-unmap defaults.
	multicore := *cores > 1 || *tenants > 1 || *unmapEvery > 0
	checkpoint := *ckptOut != "" || *ckptIn != ""
	if multicore {
		policy, err := sim.ParseShootdown(*shootdown)
		if err != nil {
			return err
		}
		setup.Topology = exp.Topology{Cores: *cores, Tenants: *tenants,
			Quantum: *quantum, Shootdown: policy, UnmapEvery: *unmapEvery}
		switch {
		case *traceFile != "":
			return fmt.Errorf("-trace replays one recorded stream; multi-core runs need per-tenant synthetic workloads")
		case setup.Oracle:
			return fmt.Errorf("the oracle's two-pass protocol is single-machine only")
		case *deadScan:
			return fmt.Errorf("-characterize is single-machine only")
		case *traceOut != "":
			return fmt.Errorf("-trace-out hook events are single-machine only; use -metrics-out or -serve for multi-core observability")
		}
	}
	// Multi-core output reports premature kills; a checkpointed run grades
	// them with accuracy as well, on any topology.
	setup.Instrument = exp.Instrumentation{Accuracy: *accuracy, Characterize: *deadScan,
		Confusion: *accuracy && (multicore || checkpoint)}

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "deadsim:", err)
			}
		}()
	}
	observer, finishObs, err := obs.FromFlags(*traceOut, *metricsOut, *interval)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel the simulation at its next stride check; the
	// error path below still flushes any partial traces and metrics.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	r := exp.NewRunner(exp.Params{Warmup: *warmup, Measure: *measure, Seed: *seed, SampleEvery: 20_000})
	r.SetContext(ctx)
	if *serveAddr != "" {
		// Single-cell board: a lone Run queues nothing, so the run's
		// workload/setup pair shows start and done transitions only, and
		// /metrics serves the run's registry (created here when
		// -metrics-out didn't already), under its workload/cli/ scope.
		if observer == nil {
			observer = &obs.Observer{}
		}
		if observer.Metrics == nil {
			observer.Metrics = obs.NewRegistry()
		}
		r.Status = serve.NewBoard()
		server := serve.NewServer(observer.Metrics, r.Status)
		addr, err := server.Start(*serveAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "deadsim: monitoring on http://%s\n", addr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := server.Shutdown(sctx); err != nil {
				fmt.Fprintln(os.Stderr, "deadsim: monitor shutdown:", err)
				return
			}
			fmt.Fprintln(os.Stderr, "deadsim: monitor stopped")
		}()
	}
	r.Observer = observer
	var res sim.Result
	if checkpoint {
		if observer != nil {
			return fmt.Errorf("checkpoints cannot be combined with -trace-out/-metrics-out/-serve (observers span the whole run, including warmup)")
		}
		if setup.Oracle {
			return fmt.Errorf("the oracle's two-pass protocol cannot be checkpointed")
		}
		res, err = runWithCheckpoint(ctx, r.Params(), w, setup, *ckptOut, *ckptIn)
	} else {
		res, err = r.Run(w, setup)
	}
	if err != nil {
		if ferr := finishObs(); ferr != nil {
			fmt.Fprintln(os.Stderr, "deadsim: flushing partial results:", ferr)
		} else if observer != nil {
			fmt.Fprintln(os.Stderr, "deadsim: partial results flushed")
		}
		return err
	}
	if err := finishObs(); err != nil {
		return err
	}
	if *memprofile != "" {
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			return err
		}
	}
	if observer != nil && observer.Tracer != nil {
		fmt.Fprintf(os.Stderr, "deadsim: traced %d events to %s\n", observer.Tracer.Count(), *traceOut)
	}

	if multicore {
		printMulti(w, setup.Topology, *tlbPred, *llcPred, *accuracy, res)
		return nil
	}

	fmt.Printf("workload      %s (%s, %d MB)\n", w.Name, w.Suite, w.FootprintMB)
	fmt.Printf("predictors    tlb=%s llc=%s\n", *tlbPred, *llcPred)
	fmt.Printf("instructions  %d\n", res.Instructions)
	fmt.Printf("cycles        %.0f\n", res.Cycles)
	fmt.Printf("IPC           %.4f\n", res.IPC)
	fmt.Printf("LLT           lookups %d, misses %d, walks %d, bypasses %d, shadow fills %d\n",
		res.LLTLookups, res.LLTMisses, res.Walks, res.LLTBypasses, res.ShadowFills)
	fmt.Printf("LLT MPKI      %.3f\n", res.LLTMPKI)
	fmt.Printf("LLC           lookups %d, misses %d, bypasses %d\n",
		res.LLCLookups, res.LLCMisses, res.LLCBypasses)
	fmt.Printf("LLC MPKI      %.3f\n", res.LLCMPKI)
	fmt.Printf("page walker   %d PTE fetches, %d walk cycles, %d queue cycles\n",
		res.PTAccesses, res.WalkCycles, res.WalkQueueCycles)
	hitRate := func(lookups, misses uint64) float64 {
		if lookups == 0 {
			return 0
		}
		return 100 * float64(lookups-misses) / float64(lookups)
	}
	fmt.Printf("hierarchy     L1D %.1f%%, L2 %.1f%%, LLC %.1f%% hit rate\n",
		hitRate(res.L1DLookups, res.L1DMisses),
		hitRate(res.L2Lookups, res.L2Misses),
		hitRate(res.LLCLookups, res.LLCMisses))
	fmt.Printf("TLBs          L1D-TLB %.1f%%, L1I-TLB %.1f%%, LLT %.1f%% hit rate\n",
		hitRate(res.DTLBLookups, res.DTLBMisses),
		hitRate(res.ITLBLookups, res.ITLBMisses),
		hitRate(res.LLTLookups, res.LLTMisses))
	fmt.Printf("PWC hits      PDE %d, PDPTE %d, PML4E %d; full walks %d\n",
		res.PWCHits[0], res.PWCHits[1], res.PWCHits[2], res.FullWalks)
	if *accuracy {
		fmt.Printf("LLT predictor accuracy %.1f%%, coverage %.1f%% (true DOAs %d)\n",
			100*res.LLTAccuracy.Accuracy(), 100*res.LLTAccuracy.Coverage(), res.LLTAccuracy.TrueDOA)
		fmt.Printf("LLC predictor accuracy %.1f%%, coverage %.1f%% (true DOAs %d)\n",
			100*res.LLCAccuracy.Accuracy(), 100*res.LLCAccuracy.Coverage(), res.LLCAccuracy.TrueDOA)
	}
	if *deadScan {
		fmt.Printf("LLT dead      %.1f%% of sampled entries dead, %.1f%% DOA; evictions %.1f%% DOA\n",
			100*res.LLTDead.SampledDeadFrac(), 100*res.LLTDead.SampledDOAFrac(), 100*res.LLTDead.DOAFrac())
		fmt.Printf("LLC dead      %.1f%% of sampled blocks dead, %.1f%% DOA; evictions %.1f%% DOA\n",
			100*res.LLCDead.SampledDeadFrac(), 100*res.LLCDead.SampledDOAFrac(), 100*res.LLCDead.DOAFrac())
		fmt.Printf("correlation   %.1f%% of LLC DOA blocks fall on DOA pages\n",
			res.Correlation.Percent())
	}
	return nil
}

// printMulti renders the multi-core run's statistics: the machine totals,
// which carry the shared LLT/LLC counters, and each core's IPC.
func printMulti(w trace.Workload, mc exp.Topology, tlbPred, llcPred string, accuracy bool, res sim.Result) {
	fmt.Printf("workload      %s (%s, %d MB) × %d tenants\n", w.Name, w.Suite, w.FootprintMB, mc.Tenants)
	fmt.Printf("topology      %d cores, quantum %d, shootdown %s, unmap every %d\n",
		mc.Cores, mc.Quantum, mc.Shootdown, mc.UnmapEvery)
	fmt.Printf("predictors    tlb=%s llc=%s\n", tlbPred, llcPred)
	fmt.Printf("instructions  %d\n", res.Instructions)
	fmt.Printf("cycles        %.0f (slowest core)\n", res.Cycles)
	fmt.Printf("IPC           %.4f aggregate;", res.IPC)
	perCore := res.PerCore
	if len(perCore) == 0 {
		perCore = []sim.Result{res} // one core: the totals are its own
	}
	for i, pc := range perCore {
		fmt.Printf(" core%d %.4f", i, pc.IPC)
	}
	fmt.Println()
	fmt.Printf("scheduling    %d context switches, %d shootdowns (%d entries flushed), %d unmaps\n",
		res.Switches, res.Shootdowns, res.ShootdownFlushed, res.Unmaps)
	fmt.Printf("shared LLT    lookups %d, misses %d, walks %d, bypasses %d\n",
		res.LLTLookups, res.LLTMisses, res.Walks, res.LLTBypasses)
	fmt.Printf("LLT MPKI      %.3f\n", res.LLTMPKI)
	fmt.Printf("shared LLC    lookups %d, misses %d, bypasses %d\n",
		res.LLCLookups, res.LLCMisses, res.LLCBypasses)
	fmt.Printf("LLC MPKI      %.3f\n", res.LLCMPKI)
	if accuracy {
		fmt.Printf("LLT predictor accuracy %.1f%%, coverage %.1f%%, premature kills %.1f%% (true DOAs %d)\n",
			100*res.LLTAccuracy.Accuracy(), 100*res.LLTAccuracy.Coverage(),
			100*res.LLTConfusion.PrematureRate(), res.LLTAccuracy.TrueDOA)
		fmt.Printf("LLC predictor accuracy %.1f%%, coverage %.1f%%, premature kills %.1f%% (true DOAs %d)\n",
			100*res.LLCAccuracy.Accuracy(), 100*res.LLCAccuracy.Coverage(),
			100*res.LLCConfusion.PrematureRate(), res.LLCAccuracy.TrueDOA)
	}
}

// ffStride is the checkpoint fast-forward loop's cancellation-check
// stride, matching the simulators' ctxCheckStride. The mask-form check in
// the loop requires a power of two, asserted at compile time.
const ffStride = 4096

const _ uint = -(ffStride & (ffStride - 1))

// runWithCheckpoint drives the simulation directly (bypassing the runner's
// memo) so the warm state can be written to or restored from a checkpoint
// file. A restored run fast-forwards each tenant's generator by the
// checkpoint's count of accesses that tenant consumed, and is
// bit-identical to the cold run that produced the checkpoint.
func runWithCheckpoint(ctx context.Context, p exp.Params, w trace.Workload, setup exp.Setup,
	outPath, inPath string) (sim.Result, error) {
	s, err := exp.BuildMachine(setup, p.Seed, nil)
	if err != nil {
		return sim.Result{}, err
	}
	gens := exp.TenantGenerators(w.New(p.Seed), w, p.Seed, s.Config().Tenants)
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return sim.Result{}, err
		}
		meta, err := s.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			return sim.Result{}, fmt.Errorf("restoring %s: %w", inPath, err)
		}
		if meta.Workload != w.Name {
			return sim.Result{}, fmt.Errorf("checkpoint %s was taken on workload %q, not %q", inPath, meta.Workload, w.Name)
		}
		// Splice each generator onto the stream position the checkpointed
		// run had reached. The fast-forward is pure generator work, so it
		// honors cancellation and a replayed trace's latched errors just
		// like a simulated prefix would.
		for t, g := range gens {
			for i := uint64(0); i < meta.TenantAccesses[t]; i++ {
				if i&(ffStride-1) == 0 {
					select {
					case <-ctx.Done():
						return sim.Result{}, fmt.Errorf("fast-forwarding %s: %w", inPath, ctx.Err())
					default:
					}
				}
				g.Next()
			}
			if err := trace.GeneratorErr(g); err != nil {
				return sim.Result{}, fmt.Errorf("fast-forwarding %s: %w", inPath, err)
			}
		}
		fmt.Fprintf(os.Stderr, "deadsim: restored %s (%d warm accesses)\n", inPath, meta.Accesses)
	} else if err := s.RunTenants(ctx, gens, p.Warmup); err != nil {
		return sim.Result{}, err
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return sim.Result{}, err
		}
		werr := s.WriteCheckpoint(f, w.Name)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return sim.Result{}, fmt.Errorf("writing %s: %w", outPath, werr)
		}
		fmt.Fprintf(os.Stderr, "deadsim: wrote checkpoint %s\n", outPath)
	}
	return exp.Measure(ctx, p, s, gens, setup)
}
