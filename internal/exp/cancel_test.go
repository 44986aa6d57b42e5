package exp

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

var cancelTestParams = Params{Warmup: 5_000, Measure: 15_000, Seed: 1, SampleEvery: 5_000}

func testWorkload(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// brokenSetup fails during predictor construction with a distinctive error.
func brokenSetup(name string, err error) Setup {
	return Setup{Name: name, TLB: func(*sim.System) (pred.TLBPredictor, error) {
		return nil, err
	}}
}

// TestGridAggregatesAllErrors: a grid with several broken setups must
// report every cell's error, not just the first one to finish, and the
// healthy cells must still simulate and memoize.
func TestGridAggregatesAllErrors(t *testing.T) {
	r := NewRunner(cancelTestParams)
	r.SetJobs(4)
	w := testWorkload(t, "cc")

	errA := errors.New("distinctive failure alpha")
	errB := errors.New("distinctive failure beta")
	err := r.RunGrid([]trace.Workload{w}, []Setup{
		brokenSetup("bad-alpha", errA),
		Baseline(),
		brokenSetup("bad-beta", errB),
	})
	if err == nil {
		t.Fatal("grid with two broken setups returned nil")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("aggregated error lost a cell failure:\n%v", err)
	}
	// Healthy cells are unaffected and already memoized.
	if _, err := r.Run(w, Baseline()); err != nil {
		t.Fatalf("baseline cell poisoned by sibling failures: %v", err)
	}
	// Real (non-cancellation) errors stay memoized.
	if _, err := r.Run(w, brokenSetup("bad-alpha", errA)); !errors.Is(err, errA) {
		t.Fatalf("broken cell not memoized: %v", err)
	}
}

// TestPanickingSetupFailsOnlyItsCell: a Setup constructor that panics must
// fail its own cell with a stack-carrying error while sibling cells run to
// completion — one bad predictor must not crash the worker pool.
func TestPanickingSetupFailsOnlyItsCell(t *testing.T) {
	r := NewRunner(cancelTestParams)
	r.SetJobs(2)
	w := testWorkload(t, "cc")

	panicky := Setup{Name: "panicky", TLB: func(*sim.System) (pred.TLBPredictor, error) {
		panic("kaboom in predictor construction")
	}}
	err := r.RunGrid([]trace.Workload{w}, []Setup{panicky, Baseline()})
	if err == nil {
		t.Fatal("grid with a panicking setup returned nil")
	}
	if !strings.Contains(err.Error(), "panic: kaboom in predictor construction") {
		t.Fatalf("panic not converted to a cell error:\n%v", err)
	}
	if !strings.Contains(err.Error(), "cancel_test.go") {
		t.Errorf("panic error carries no stack trace:\n%v", err)
	}
	if _, err := r.Run(w, Baseline()); err != nil {
		t.Fatalf("baseline cell killed by sibling panic: %v", err)
	}
}

// TestFailureThenCancelWrapsCause: a grid whose context is canceled after
// one of its cells failed reports both, the failure and the cancellation,
// and its error still wraps ctx's cause. The canceled cell is evicted from
// the memo, so a later Run re-simulates it.
func TestFailureThenCancelWrapsCause(t *testing.T) {
	r := NewRunner(cancelTestParams)
	w := testWorkload(t, "cc")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	failErr := errors.New("distinctive failure before cancel")
	gate := make(chan struct{})
	bad := Setup{Name: "cancel-bad", TLB: func(*sim.System) (pred.TLBPredictor, error) {
		close(gate) // single-flight: runs exactly once
		return nil, failErr
	}}
	// The gated cell cancels the grid only once the bad cell has failed,
	// then runs into the canceled context.
	gated := Setup{Name: "cancel-gated", TLB: func(s *sim.System) (pred.TLBPredictor, error) {
		<-gate
		cancel()
		return newDPPred(s)
	}}
	r.SetJobs(2) // both cells hold a slot; neither deadlocks on the gate

	err := r.RunGridContext(ctx, []trace.Workload{w}, []Setup{bad, gated})
	if !errors.Is(err, failErr) {
		t.Fatalf("grid error does not wrap the cell failure:\n%v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("grid error does not wrap the cancellation:\n%v", err)
	}
	if !strings.Contains(err.Error(), "grid canceled (1 cells unfinished)") {
		t.Fatalf("grid error does not count the canceled cell:\n%v", err)
	}
	if _, err := r.Run(w, gated); err != nil {
		t.Fatalf("canceled cell stayed poisoned in the memo: %v", err)
	}
}

// TestMidGridCancellation: canceling the grid's context mid-run must stop
// the grid with a cancellation error, leak no goroutines, and leave the
// memo consistent — the same runner must complete the identical grid
// cleanly afterwards.
func TestMidGridCancellation(t *testing.T) {
	g0 := runtime.NumGoroutine()

	r := NewRunner(cancelTestParams)
	r.SetJobs(2)
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "sssp")}
	setups := []Setup{Baseline(), DPPredSetup()}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as the first simulation begins: the leader aborts at its
	// first stride check, the rest abort waiting for slots or memo peers.
	r.ProgressStart = func(string, string) { cancel() }

	err := r.RunGridContext(ctx, ws, setups)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled grid returned %v, want a context.Canceled wrap", err)
	}
	if !strings.Contains(err.Error(), "grid canceled") {
		t.Errorf("error does not describe the grid cancellation: %v", err)
	}

	// No goroutine may outlive the grid (pool workers, memo waiters).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > g0+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > g0+2 {
		t.Errorf("goroutines leaked across cancellation: %d before, %d after", g0, n)
	}

	// Cancellation must not poison any memo (result, buffer, warm state):
	// the same runner completes the identical grid afterwards.
	r.ProgressStart = nil
	if err := r.RunGrid(ws, setups); err != nil {
		t.Fatalf("grid after cancellation failed: %v", err)
	}
	for _, w := range ws {
		for _, su := range setups {
			if _, err := r.Run(w, su); err != nil {
				t.Fatalf("%s/%s unavailable after recovery: %v", w.Name, su.Name, err)
			}
		}
	}
}

// TestProgressDoneReportsFailures: ProgressDone must fire on the error
// path too, carrying the cell's error, so progress accounting never runs
// short on failing grids.
func TestProgressDoneReportsFailures(t *testing.T) {
	r := NewRunner(cancelTestParams)
	w := testWorkload(t, "cc")

	var doneErr error
	dones := 0
	r.ProgressDone = func(_, _ string, _ time.Duration, err error) {
		dones++
		doneErr = err
	}
	boom := errors.New("constructor exploded")
	if _, err := r.Run(w, brokenSetup("bad", boom)); !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want wrapped constructor error", err)
	}
	if dones != 1 {
		t.Fatalf("ProgressDone fired %d times, want 1", dones)
	}
	if !errors.Is(doneErr, boom) {
		t.Fatalf("ProgressDone err = %v, want the cell's failure", doneErr)
	}
}

// TestRunnerContextPropagation: SetContext must make the plain Run/RunGrid
// entry points honor cancellation without any signature change.
func TestRunnerContextPropagation(t *testing.T) {
	r := NewRunner(cancelTestParams)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.SetContext(ctx)
	w := testWorkload(t, "cc")

	if _, err := r.Run(w, Baseline()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a canceled base context returned %v", err)
	}
	// Restoring the background context clears the cancellation.
	r.SetContext(nil)
	if _, err := r.Run(w, Baseline()); err != nil {
		t.Fatalf("Run after clearing the context failed: %v", err)
	}
}
