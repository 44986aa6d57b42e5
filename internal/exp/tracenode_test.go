package exp

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// countedWorkloads wraps the named workloads' generators and returns them
// with a func reporting how many generators each has built.
func countedWorkloads(t *testing.T, names ...string) ([]trace.Workload, func() map[string]int64) {
	t.Helper()
	counts := make(map[string]*atomic.Int64)
	var ws []trace.Workload
	for _, name := range names {
		inner := testWorkload(t, name)
		n := new(atomic.Int64)
		counts[name] = n
		ws = append(ws, trace.Workload{Name: name, New: func(seed uint64) trace.Generator {
			n.Add(1)
			return inner.New(seed)
		}})
	}
	return ws, func() map[string]int64 {
		out := make(map[string]int64)
		for name, n := range counts {
			out[name] = n.Load()
		}
		return out
	}
}

// nodeHeld reports a plan node's remaining edges and whether it still
// holds a value.
func nodeHeld(n *node) (edges int, holds bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.edges, n.val != nil
}

// TestGridMaterializesEachTraceOnce: one grid builds each workload's
// generator exactly once, shared by every cell that reads it (the oracle's
// two passes, the baseline's cold fallback, a warm master and the cold
// cells), and releases every trace it materialized by the time it returns.
// A second grid on the same runner is all memo hits and materializes
// nothing. The runner has no memo or executor, so nothing fingerprints a
// workload, which would build a generator too.
func TestGridMaterializesEachTraceOnce(t *testing.T) {
	setups := []Setup{Baseline(), OracleSetup(), DPPredSetup(), withAccuracy(DPPredSetup()),
		SHiPTLBSetup(), IsoStorageSetup()}
	for _, jobs := range []int{1, 4} {
		ws, built := countedWorkloads(t, "cc", "mcf", "sssp")
		r := NewRunner(pairTestParams)
		r.SetJobs(jobs)
		held := trackPlans(r)
		for pass := 0; pass < 2; pass++ {
			if err := r.RunGrid(ws, setups); err != nil {
				t.Fatal(err)
			}
			for name, n := range built() {
				if n != 1 {
					t.Errorf("jobs=%d, grid %d: %s's generator built %d times, want 1", jobs, pass, name, n)
				}
			}
			if made, freed := r.Traces(); made != int64(len(ws)) || freed != made {
				t.Errorf("jobs=%d, grid %d: %d traces materialized and %d released, want %d and %d",
					jobs, pass, made, freed, len(ws), len(ws))
			}
		}
		if h := held(); len(h) > 0 {
			t.Errorf("jobs=%d: nodes still held: %v", jobs, h)
		}
	}
}

// TestBaselineCellHoldsNoTrace: a baseline cell that takes its workload's
// shared pass never reads the trace, so it drops its edge as soon as the
// pass is published. At one job it takes its pool slot only after every
// other cell of the grid (it queues once the pass is out), so its
// workload's trace is already released when its span opens. A baseline
// cell counted as a reader would keep every trace alive to the grid's end.
func TestBaselineCellHoldsNoTrace(t *testing.T) {
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "mcf"), testWorkload(t, "sssp")}
	setups := []Setup{Baseline(), AIPTLBSetup(), SHiPTLBSetup(), DPPredSetup(), IsoStorageSetup(), OracleSetup()}
	r := NewRunner(pairTestParams)
	r.SetJobs(1)
	held := trackPlans(r)
	track := r.onPlan
	var plan *gridPlan
	r.onPlan = func(p *gridPlan) {
		track(p)
		plan = p
	}
	checked := 0 // one job: spans open one at a time
	r.ProgressStart = func(w, s string) {
		if s != "baseline" {
			return
		}
		checked++
		if edges, holds := nodeHeld(plan.traces[w+"/"+s].node); edges != 0 || holds {
			t.Errorf("%s/baseline opened its span with its trace still held (%d edges, value held %v)", w, edges, holds)
		}
	}
	if err := r.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}
	if checked != len(ws) {
		t.Errorf("%d baseline spans, want %d", checked, len(ws))
	}
	if shared, _ := r.RecordPasses(); shared != int64(len(ws)) {
		t.Errorf("%d baseline cells took their pass, want %d", shared, len(ws))
	}
	if made, freed := r.Traces(); made != int64(len(ws)) || freed != made {
		t.Errorf("%d traces materialized and %d released, want %d and %d", made, freed, len(ws), len(ws))
	}
	if h := held(); len(h) > 0 {
		t.Errorf("nodes still held: %v", h)
	}
}

// TestMemoAndExecutorCellsMaterializeNothing: cells served by a persistent
// memo or handed to an executor never read a trace. An executor's cell has
// dropped its trace edge before the executor runs, so a trace no local
// cell reads is never built, and one that is built is not held for the
// remote cells.
func TestMemoAndExecutorCellsMaterializeNothing(t *testing.T) {
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "mcf")}
	setups := []Setup{Baseline(), DPPredSetup(), OracleSetup()}
	memo := &memMemo{}
	ref := NewRunner(cellTestParams)
	ref.Memo = memo
	if err := ref.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}

	fromMemo := NewRunner(cellTestParams)
	fromMemo.Memo = memo
	held := trackPlans(fromMemo)
	if err := fromMemo.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}
	if made, freed := fromMemo.Traces(); made != 0 || freed != 0 {
		t.Errorf("memo-served grid: %d traces materialized, %d released; want none", made, freed)
	}
	if h := held(); len(h) > 0 {
		t.Errorf("memo-served grid: nodes still held: %v", h)
	}

	remote := NewRunner(cellTestParams)
	held = trackPlans(remote)
	track := remote.onPlan
	var plan *gridPlan
	remote.onPlan = func(p *gridPlan) {
		track(p)
		plan = p
	}
	remote.Executor = func(_ context.Context, _ string, w trace.Workload, setup Setup, started func()) (sim.Result, error) {
		started()
		// The executor runs on the cell's goroutine, which owns its edge.
		if te := plan.traces[w.Name+"/"+setup.Name]; !te.dropped {
			t.Errorf("%s/%s reached the executor holding its trace edge", w.Name, setup.Name)
		}
		return ref.Run(w, setup)
	}
	if err := remote.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}
	if made, freed := remote.Traces(); made != 0 || freed != 0 {
		t.Errorf("executor grid: %d traces materialized, %d released; want none", made, freed)
	}
	if h := held(); len(h) > 0 {
		t.Errorf("executor grid: nodes still held: %v", h)
	}
}

// TestTraceDirClosesFileAtRelease: under SetTraceDir a trace node opens
// its workload's DPBF v2 file for its first reader and closes it when the
// last reader drops it, so no file stays open once the grid returns. Open
// descriptors are counted in /proc/self/fd, so the test runs on Linux only.
func TestTraceDirClosesFileAtRelease(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts open files through /proc/self/fd")
	}
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	openFiles := func() int {
		ents, _ := os.ReadDir("/proc/self/fd")
		return len(ents)
	}
	// An unreachable *os.File is closed by its finalizer at some later
	// collection; with the collector off, only an explicit close counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir := t.TempDir()
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "mcf")}
	setups := []Setup{Baseline(), DPPredSetup()}
	// Record the files first, so the grid below only opens them.
	if err := func() error {
		r := NewRunner(cancelTestParams)
		r.SetTraceDir(dir)
		return r.RunGrid(ws, setups[:1])
	}(); err != nil {
		t.Fatal(err)
	}

	before := openFiles()
	r := NewRunner(cancelTestParams)
	r.SetJobs(1)
	r.SetTraceDir(dir)
	held := trackPlans(r)
	peak := 0 // one job: spans close one at a time
	r.ProgressDone = func(string, string, time.Duration, error) {
		// The cell still holds its trace edge here.
		peak = max(peak, openFiles())
	}
	if err := r.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}
	if peak <= before {
		t.Errorf("no trace file open while cells ran (%d descriptors, %d before the grid)", peak, before)
	}
	if after := openFiles(); after != before {
		t.Errorf("%d descriptors open after the grid, %d before: a trace file outlived its readers", after, before)
	}
	if made, freed := r.Traces(); made != int64(len(ws)) || freed != made {
		t.Errorf("%d trace files opened and %d released, want %d and %d", made, freed, len(ws), len(ws))
	}
	if h := held(); len(h) > 0 {
		t.Errorf("nodes still held: %v", h)
	}
}

// TestAbandonedPassBaselineReadsTrace: a baseline cell whose pass fails
// keeps its trace edge and runs cold. A pass cannot be made to fail while
// the baseline's own cold run succeeds: both build the same plain machine
// over the same trace node under the same context. An abandoned pass takes
// the same branch, so this test abandons one: grid B pairs its baseline and
// oracle cells, then grid A leads the oracle cell first, so B's oracle cell
// waits for A's result and drops its pass unpublished. B's baseline must
// then read its trace itself, through B's node, which B releases.
func TestAbandonedPassBaselineReadsTrace(t *testing.T) {
	ws := []trace.Workload{testWorkload(t, "cc")}
	want, err := NewRunner(pairTestParams).Run(ws[0], Baseline())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(pairTestParams)
	r.SetJobs(2)
	held := trackPlans(r)
	started := make(chan string, 4)
	r.ProgressStart = func(_, s string) { started <- s }
	aErr := make(chan error, 1)
	track := r.onPlan
	r.onPlan = func(p *gridPlan) {
		track(p)
		if len(p.setups) == 2 { // grid B, planned and paired
			go func() { aErr <- r.RunGrid(ws, []Setup{OracleSetup()}) }()
			if s := <-started; s != "oracle" {
				t.Errorf("grid A started %s, want its oracle cell", s)
			}
		}
	}
	if err := r.RunGrid(ws, []Setup{Baseline(), OracleSetup()}); err != nil {
		t.Fatal(err)
	}
	if err := <-aErr; err != nil {
		t.Fatal(err)
	}
	if got, err := r.Run(ws[0], Baseline()); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("baseline after an abandoned pass differs from a fresh runner's (err %v)", err)
	}
	if shared, alone := r.RecordPasses(); shared != 0 || alone != 1 {
		t.Errorf("%d shared and %d lone record passes, want 0 and 1", shared, alone)
	}
	// One trace per grid: A's for its oracle cell, B's for its baseline.
	if made, freed := r.Traces(); made != 2 || freed != 2 {
		t.Errorf("%d traces materialized and %d released, want 2 and 2", made, freed)
	}
	if h := held(); len(h) > 0 {
		t.Errorf("nodes still held: %v", h)
	}
}
