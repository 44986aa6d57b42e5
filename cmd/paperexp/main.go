// Command paperexp regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index) and prints them in
// the paper's layout.
//
// Usage:
//
//	paperexp                 # full run (several minutes)
//	paperexp -quick          # reduced trace lengths (~2 minutes)
//	paperexp -only fig9,tab4 # a subset
//	paperexp -list           # list experiment IDs and registered predictors
//	paperexp -jobs 8         # worker-pool width (default GOMAXPROCS)
//	paperexp -predictors all # extended Table IV across the predictor arena
//	paperexp -coordinator 127.0.0.1:8080 -memo-dir ./memo  # distributed sweep
//	paperexp -worker http://127.0.0.1:8080                 # join as a worker
//
// -predictors sweeps registered predictors (internal/pred registry) on
// identical materialized traces and prints the extended Table IV with
// storage-normalized footers; "all" sweeps every TLB-side predictor, a
// comma-separated list picks specific competitors (unknown names list the
// registered set). Without -only, -predictors runs just the sweep. An
// unknown -only ID or -predictors name fails before anything simulates.
//
// -multicore runs the multi-core/multi-tenant interference sweep (DESIGN.md
// §15): dead-page prediction accuracy, premature-kill rate, LLT MPKI and
// aggregate IPC across a cores × tenants grid with ASID-targeted TLB
// shootdowns. Without -only, -multicore runs just that sweep. Its cells
// are runner cells like every table's, so -memo-dir, -coordinator, -v's
// counters and the printed table's -jobs invariance all hold for it too.
//
// Simulations are sharded across a bounded worker pool (-jobs); every run
// is seeded, results are aggregated in the paper's fixed order, and the
// printed tables are byte-identical whatever the job count. The selected
// tables' and -predictors' cells simulate first as one union grid, their
// grids concatenated (exp.Experiment.Grid), so -v progress follows that
// grid rather than the tables' order; the -multicore sweep, which runs one
// workload only, runs its own grid after them.
//
// -trace-dir DIR caches each workload's stream as a compressed DPBF v2
// trace file under DIR (recorded once, reused on later runs with the same
// seed and lengths) and streams it from disk chunk by chunk instead of
// holding the materialized buffer in memory. Output stays byte-identical
// to the in-memory default at any -jobs; see DESIGN.md §16.
//
// Distributed sweeps (see DESIGN.md §17): -memo-dir DIR persists every
// cell result in a content-addressed memo, so a re-run computes only the
// delta. -coordinator ADDR (which requires -memo-dir) also serves cells
// over HTTP to -worker processes; `paperexp -worker URL` pulls cells from a
// coordinator until the sweep is done. Workers that die mid-cell are
// detected by lease expiry and their cells requeued; a restarted
// coordinator over the same -memo-dir computes only the delta, reporting
// the split in a final "coordinator status:" line on stderr. Printed
// tables are byte-identical across single-process, distributed and
// memo-resumed runs.
//
// Observability (see DESIGN.md §8): -trace-out FILE streams JSONL (or CSV,
// by extension) hook-point events (deadsim's -trace is a replay input),
// -metrics-out FILE writes interval time series plus final counters as
// JSON, -interval N sets the sampling cadence, and
// -cpuprofile/-memprofile capture pprof profiles.
//
// Live monitoring (see DESIGN.md §13): -serve ADDR starts an HTTP server
// for the duration of the run with /metrics (Prometheus text), /status
// (JSON grid snapshot), /events (SSE cell transitions), /healthz and
// /debug/pprof. ":0" picks a free port; the bound address is printed to
// stderr. A coordinator serves the same routes on its own address, beside
// its lease protocol, and its /metrics carries the expserve.* scheduling
// and memo counters; -serve and -coordinator together are rejected.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/expserve"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/pred"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperexp:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick      = flag.Bool("quick", false, "use reduced trace lengths")
		only       = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		seed       = flag.Uint64("seed", 1, "workload and allocator seed")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulations (1 = sequential; output is identical either way)")
		verbose    = flag.Bool("v", false, "print per-simulation progress with elapsed time")
		traceDir   = flag.String("trace-dir", "", "cache workload traces as compressed DPBF v2 files in this directory (created if missing) and stream them from disk instead of holding materialized buffers in memory")
		traceOut   = flag.String("trace-out", "", "write hook-point event trace to file (JSONL; a .csv extension selects CSV)")
		metricsOut = flag.String("metrics-out", "", "write interval time series and final metrics JSON to file")
		serveAddr  = flag.String("serve", "", "serve live monitoring HTTP endpoints on this address while the run lasts (\":0\" picks a free port; a -coordinator serves them on its own address)")
		interval   = flag.Uint64("interval", 50_000, "accesses between interval samples (used with -metrics-out)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to file")
		predictors = flag.String("predictors", "", "extended Table IV sweep: comma-separated registered predictor names, or \"all\" for every TLB-side predictor")
		multicore  = flag.Bool("multicore", false, "multi-core/multi-tenant interference sweep: dead-page prediction quality vs core count × tenant count")
		coordAddr  = flag.String("coordinator", "", "run the sweep as a coordinator serving cells to -worker processes, and the monitoring endpoints, on this address (\":0\" picks a free port; requires -memo-dir)")
		workerURL  = flag.String("worker", "", "run as a sweep worker pulling cells from this coordinator URL (e.g. http://127.0.0.1:8080)")
		memoDir    = flag.String("memo-dir", "", "persist per-cell results in this directory (created if missing); a re-run with the same memo computes only the delta")
	)
	flag.Parse()

	experiments := exp.Experiments()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Name)
		}
		fmt.Println("storage  Section VI-D (storage overheads)")
		fmt.Println("\nflag-selected sweeps: -predictors (extended Table IV), -multicore (interference grid)")
		fmt.Printf("\nregistered predictors (-predictors): %s\n", strings.Join(pred.Names(), ", "))
		return nil
	}

	// Worker mode: no experiments of its own — pull cells from the
	// coordinator until it reports the sweep done (DESIGN.md §17).
	if *workerURL != "" {
		if *coordAddr != "" {
			return fmt.Errorf("-worker and -coordinator are mutually exclusive")
		}
		if *memoDir != "" {
			return fmt.Errorf("-memo-dir belongs on the coordinator; workers hold no memo")
		}
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		if *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "paperexp: worker pulling cells from %s\n", *workerURL)
		return expserve.RunWorker(ctx, expserve.WorkerConfig{
			Coordinator: strings.TrimRight(*workerURL, "/"),
			Jobs:        *jobs,
			TraceDir:    *traceDir,
			Verbose:     *verbose,
		})
	}

	if *serveAddr != "" && *coordAddr != "" {
		return fmt.Errorf("-serve and -coordinator are mutually exclusive: the coordinator's address serves the monitoring plane")
	}
	if *coordAddr != "" && *memoDir == "" {
		return fmt.Errorf("-coordinator requires -memo-dir (the durable cell memo)")
	}

	// Select the experiments before anything simulates, so an unknown
	// -only ID or -predictors name fails at once.
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.ID)
	}
	ids = append(ids, "storage")
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.ToLower(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return fmt.Errorf("-only: unknown experiment ID %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		selected[id] = true
	}
	// With -predictors or -multicore and no -only, run just those sweeps.
	want := func(id string) bool {
		if len(selected) == 0 {
			return *predictors == "" && !*multicore
		}
		return selected[id]
	}
	var runs, arena []exp.Experiment
	for _, e := range experiments {
		if want(e.ID) {
			runs = append(runs, e)
		}
	}
	if *predictors != "" {
		var names []string
		if !strings.EqualFold(*predictors, "all") {
			for _, n := range strings.Split(*predictors, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
		}
		a, err := exp.Arena(names)
		if err != nil {
			return fmt.Errorf("predictors: %w", err)
		}
		arena = append(arena, a)
	}

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "paperexp:", err)
			}
		}()
	}

	params := exp.DefaultParams()
	if *quick {
		params = exp.QuickParams()
	}
	params.Seed = *seed
	r := exp.NewRunner(params)
	r.SetJobs(*jobs)
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		r.SetTraceDir(*traceDir)
	}
	if *verbose {
		r.ProgressStart = func(w, s string) {
			fmt.Fprintf(os.Stderr, "  simulating %s under %s\n", w, s)
		}
		r.ProgressDone = func(w, s string, elapsed time.Duration, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "  FAILED     %s under %s after %v: %v\n", w, s, elapsed.Round(time.Millisecond), err)
				return
			}
			fmt.Fprintf(os.Stderr, "  finished   %s under %s in %v\n", w, s, elapsed.Round(time.Millisecond))
		}
	}

	// SIGINT/SIGTERM cancel the experiment grid: running simulations stop
	// at their next stride check, queued cells never start, and the error
	// path below flushes whatever traces and metrics were already
	// collected before exiting nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	r.SetContext(ctx)

	// Distributed sweeps (DESIGN.md §17): -memo-dir persists every cell
	// result, so a re-run (or a restarted coordinator) computes only the
	// delta; -coordinator also serves cells to -worker processes.
	var memo *expserve.DiskMemo
	if *memoDir != "" {
		m, err := expserve.OpenDiskMemo(*memoDir)
		if err != nil {
			return err
		}
		memo, r.Memo = m, m
	}
	observer, finishObs, err := obs.FromFlags(*traceOut, *metricsOut, *interval)
	if err != nil {
		return err
	}

	// One monitoring plane (DESIGN.md §13): -serve, or the coordinator's
	// address, which also carries the lease protocol.
	if planeAddr := cmp.Or(*serveAddr, *coordAddr); planeAddr != "" {
		// -serve observes every run, so /metrics carries its counters and
		// histograms; the registry is passive, so results are unchanged. A
		// coordinator observes only under -metrics-out, so its local cells
		// still share warm state.
		if *serveAddr != "" {
			if observer == nil {
				observer = &obs.Observer{}
			}
			if observer.Metrics == nil {
				observer.Metrics = obs.NewRegistry()
			}
		}
		reg := obs.NewRegistry()
		if observer != nil && observer.Metrics != nil {
			reg = observer.Metrics
		}
		board := serve.NewBoard()
		r.Status = board
		server := serve.NewServer(reg, board)
		if memo != nil {
			memo.RegisterProbes(reg)
		}
		var coord *expserve.Coordinator
		if *coordAddr != "" {
			coord = expserve.NewCoordinator(params)
			coord.Mount(server, reg)
			r.Executor = coord.Execute
		}
		addr, err := server.Start(planeAddr)
		if err != nil {
			return err
		}
		if coord == nil {
			fmt.Fprintf(os.Stderr, "paperexp: monitoring on http://%s\n", addr)
		} else {
			coord.Start()
			fmt.Fprintf(os.Stderr, "paperexp: coordinating on http://%s\n", addr)
		}
		defer func() {
			if coord != nil {
				coord.Finish()
				n, m := coord.Counts(), memo.Stats()
				fmt.Fprintf(os.Stderr, "paperexp: coordinator status: cells=%d memo_hits=%d computed=%d requeues=%d failed=%d\n",
					int(m.Hits)+n.Computed+n.Failed+n.Queued+n.Leased, m.Hits, n.Computed, n.Requeues, n.Failed)
				// Give polling workers one round-trip to observe the done
				// signal and exit cleanly before the listener goes away.
				time.Sleep(1200 * time.Millisecond)
				coord.Stop()
			}
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := server.Shutdown(sctx); err != nil {
				fmt.Fprintln(os.Stderr, "paperexp: monitor shutdown:", err)
				return
			}
			fmt.Fprintln(os.Stderr, "paperexp: monitor stopped")
		}()
	}
	r.Observer = observer

	// failPartial flushes the observability sinks before surfacing an
	// error, so an interrupted or failed grid still leaves analyzable
	// partial traces and metrics behind.
	failPartial := func(err error) error {
		if ferr := finishObs(); ferr != nil {
			fmt.Fprintln(os.Stderr, "paperexp: flushing partial results:", ferr)
		} else {
			fmt.Fprintln(os.Stderr, "paperexp: partial results flushed")
		}
		return err
	}

	start := time.Now()
	// Every selected experiment's cells simulate first, as one grid: the
	// selected grids concatenated, which RunGrid deduplicates by name. Its
	// plan counts each warm master's consumers across experiments and
	// pairs one experiment's baseline cells with another's oracle
	// (DESIGN.md §9). The experiments below replay that grid from the memo
	// in table order, so stdout is unchanged. A grid failure is not
	// reported here: each experiment re-runs its own grid, failed and
	// canceled cells included, and fails under its own ID after the ones
	// before it have printed, as it would on its own.
	var union []exp.Setup
	for _, e := range append(runs, arena...) {
		union = append(union, e.Grid()...)
	}
	_ = r.RunGrid(trace.Workloads(), union)
	show := func(es []exp.Experiment) error {
		for _, e := range es {
			s, err := e.Run(r)
			if err != nil {
				return failPartial(fmt.Errorf("%s: %w", e.ID, err))
			}
			fmt.Println(s.Format())
		}
		return nil
	}

	if err := show(runs); err != nil {
		return err
	}
	if want("storage") {
		rep, err := exp.StorageOverheads()
		if err != nil {
			return failPartial(err)
		}
		fmt.Println(rep.Format())
	}
	if err := show(arena); err != nil {
		return err
	}
	if *multicore {
		s, err := exp.MultiCoreSweep(r)
		if err != nil {
			return failPartial(fmt.Errorf("multicore: %w", err))
		}
		fmt.Println(s.Format())
	}
	if err := finishObs(); err != nil {
		return err
	}
	if observer != nil && observer.Tracer != nil {
		fmt.Fprintf(os.Stderr, "paperexp: traced %d events to %s\n", observer.Tracer.Count(), *traceOut)
	}
	if *memprofile != "" {
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			return err
		}
	}
	if *verbose {
		shared, alone := r.RecordPasses()
		fmt.Fprintf(os.Stderr, "paperexp: oracle record passes: %d shared with the baseline cell, %d run alone\n", shared, alone)
		forked, cold := r.WarmForks()
		fmt.Fprintf(os.Stderr, "paperexp: warm-state forks: %d forked, %d fell back to cold\n", forked, cold)
		made, freed := r.Traces()
		fmt.Fprintf(os.Stderr, "paperexp: traces: %d materialized, %d released\n", made, freed)
		st := r.Storage()
		fmt.Fprintf(os.Stderr, "paperexp: storage: %d machines built, %d recycled, %d kept; %d trace buffers reused\n",
			st.Built, st.Recycled, st.Kept, st.TracesReused)
		fmt.Fprintf(os.Stderr, "paperexp: pool: %d reused, %d allocated, %d dropped\n",
			st.Pool.Reused, st.Pool.Allocated, st.Pool.Dropped)
	}
	fmt.Fprintf(os.Stderr, "paperexp: done in %v\n", time.Since(start).Round(time.Second))
	return nil
}
