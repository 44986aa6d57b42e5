// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator through the entry points cmd/paperexp uses (exp.Runner,
// exp.Table4 and the trace package) on one of its workloads, checks the simulated results, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 a separate traced pass taps every predictor seam, records
// the LLT, walk and LLC request streams, replays them through fresh
// structures, and reports the per-module cost ledger (see METRICS.md).
//
// Run it through run.py from the repository root, which builds this module
// first:
//
//	python3 perfbench/run.py --workload tab4 --seed 1 --seconds 50 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 50, "measuring time for untraced passes")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer ledger")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for recorded traces (removed on exit)")
	source := flag.String("source", "unknown", "commit or source-tree digest, stamped into the report")
	setupOnly := flag.Bool("setup-only", false, "run the workload's set-up and exit (timed by the parent run for setup_s)")
	flag.Parse()
	jobs := benchJobs(*traced == 1)
	runtime.GOMAXPROCS(jobs)

	spec, ok := lookupWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*workdir), spec.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{spec: spec, seed: *seed, jobs: jobs, dir: dir}
	var out summary
	if *setupOnly {
		err = b.setup(context.Background(), filepath.Join(dir, "traces"))
	} else {
		out, err = b.run(*seconds, *traced == 1, *source)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *setupOnly {
		return
	}
	printSummary(out)
	if !out.Correct {
		os.Exit(1)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	return dir
}

// benchJobs is the simulation job count, and main sets GOMAXPROCS to it.
// Untraced runs use one job on one Go processor, so the garbage collector
// shares the simulation's thread instead of running beside it: on a small
// shared host two busy threads slow each other down by an amount that
// changes from minute to minute — on a 2-vCPU host, scaled-down tab4 passes
// took 3.2 to 5.8 s with two jobs and 5.1 to 6.6 s with one — which would
// drown the changes the benchmark exists to detect. The traced run reports
// no gated metric and does three times the work (reference pass, traced
// pass, replays), so it runs up to two jobs to fit its time limit; its
// ledger compares CPU times measured at the same job count.
func benchJobs(traced bool) int {
	if traced && runtime.NumCPU() >= 2 {
		return 2
	}
	return 1
}

// stampHost prints the facts that make two reports comparable: numbers from
// different machines, job counts or sources must never be compared.
func stampHost(b *bench, source string, traced bool) {
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("run workload=%s seed=%d jobs=%d traced=%v source=%s warmup=%d measure=%d\n",
		b.spec.name, b.seed, b.jobs, traced, source, b.spec.params.Warmup, b.spec.params.Measure)
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printSummary(s summary) {
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
