// Characterize: reproduce the §IV dead-entry characterization for a single
// workload — how many LLT entries and LLC blocks are dead or dead-on-
// arrival, and how strongly DOA blocks concentrate on DOA pages (the
// observation behind cbPred).
//
//	go run ./examples/characterize [workload]
//	go run ./examples/characterize -warmup 5000 -n 20000 pr   # smoke-test scale
package main

import (
	"flag"
	"fmt"
	"log"

	deadpred "repro"
)

func main() {
	var (
		warmup  = flag.Uint64("warmup", 200_000, "warmup accesses before measurement")
		measure = flag.Uint64("n", 800_000, "measured accesses")
	)
	flag.Parse()
	name := "pr"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	w, err := deadpred.WorkloadByName(name)
	if err != nil {
		log.Fatal(err)
	}

	cfg := deadpred.DefaultConfig()
	sys, err := deadpred.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The samplers read entry times from the machine's first access on.
	if err := sys.TrackEntryTimes(); err != nil {
		log.Fatal(err)
	}

	g := w.New(1)
	if err := sys.Run(g, *warmup); err != nil { // warm the hierarchy
		log.Fatal(err)
	}
	if err := sys.EnableCharacterization(*measure / 40); err != nil {
		log.Fatal(err)
	}
	sys.StartMeasurement()
	if err := sys.Run(g, *measure); err != nil {
		log.Fatal(err)
	}
	sys.Finish()
	res := sys.Result()

	fmt.Printf("workload %s — %s\n\n", w.Name, w.Description)

	llt := res.LLTDead
	fmt.Println("last-level TLB (Figures 1 and 2):")
	fmt.Printf("  sampled residency: %5.1f%% dead at any time, %5.1f%% DOA\n",
		100*llt.SampledDeadFrac(), 100*llt.SampledDOAFrac())
	fmt.Printf("  evictions:         %5.1f%% DOA, %5.1f%% mostly dead, %5.1f%% mostly live\n",
		100*llt.DOAFrac(), 100*llt.MostlyDeadFrac(),
		100*(1-llt.DOAFrac()-llt.MostlyDeadFrac()))

	llc := res.LLCDead
	fmt.Println("\nlast-level cache (Figures 3 and 4):")
	fmt.Printf("  sampled residency: %5.1f%% dead at any time, %5.1f%% DOA\n",
		100*llc.SampledDeadFrac(), 100*llc.SampledDOAFrac())
	fmt.Printf("  evictions:         %5.1f%% DOA, %5.1f%% mostly dead\n",
		100*llc.DOAFrac(), 100*llc.MostlyDeadFrac())

	corr := res.Correlation
	fmt.Println("\ncorrelation (Table III):")
	fmt.Printf("  %d LLC DOA blocks observed; %.1f%% fall on a DOA page in the LLT\n",
		corr.DOABlocks, corr.Percent())
	fmt.Println("\nThe paper's two key observations should be visible: most LLT entries")
	fmt.Println("are dead-on-arrival, and DOA cache blocks concentrate on DOA pages —")
	fmt.Println("which is exactly what dpPred and cbPred exploit.")
}
