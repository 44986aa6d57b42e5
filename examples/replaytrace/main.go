// Replaytrace: record a workload's access trace to a DPBF v2 file, then
// replay it through the simulator — the workflow for users who want to
// bring traces captured on real systems (convert them to the repository's
// binary format with cmd/tracedump as a template).
//
//	go run ./examples/replaytrace
//	go run ./examples/replaytrace -n 20000   # smoke-test scale
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	deadpred "repro"
)

func main() {
	nFlag := flag.Uint64("n", 400_000, "accesses to record (first quarter warms, next half measures)")
	flag.Parse()
	n := *nFlag
	w, err := deadpred.WorkloadByName("graph500")
	if err != nil {
		log.Fatal(err)
	}

	// Record the first n accesses to a temporary trace file.
	path := filepath.Join(os.TempDir(), "graph500.dpbf")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := deadpred.RecordTrace(f, w.New(1), n); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d accesses to %s (%.1f MB)\n\n", n, path,
		float64(info.Size())/(1<<20))
	defer os.Remove(path)

	// Replay the file through two machine configurations. The recorded
	// trace is identical for both runs — exactly the property that makes
	// trace-driven comparisons fair.
	for _, withPred := range []bool{false, true} {
		rf, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		gen, err := deadpred.OpenTrace(rf, info.Size())
		if err != nil {
			log.Fatal(err)
		}
		sys, err := deadpred.New(deadpred.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		label := "baseline     "
		if withPred {
			label = "dpPred+cbPred"
			if _, _, err := deadpred.AttachPaperPredictors(sys); err != nil {
				log.Fatal(err)
			}
		}
		if err := sys.Run(gen, n/4); err != nil { // warmup on the first quarter
			log.Fatal(err)
		}
		sys.StartMeasurement()
		if err := sys.Run(gen, n/2); err != nil {
			log.Fatal(err)
		}
		if err := gen.Err(); err != nil {
			log.Fatal(err)
		}
		res := sys.Result()
		fmt.Printf("%s  IPC %.4f  LLT MPKI %7.2f  walks %d\n",
			label, res.IPC, res.LLTMPKI, res.Walks)
		rf.Close()
	}
}
