package exp

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// pairTestParams keeps the shared-pass tests short: sharing is exact at
// any run length.
var pairTestParams = Params{Warmup: 8_000, Measure: 16_000, Seed: 3, SampleEvery: 4_000}

// spanLog checks the progress contract: every simulated cell opens and
// closes exactly one span, and the most spans open at once never exceeds
// the pool (with one job, spans never nest).
type spanLog struct {
	mu      sync.Mutex
	open    int
	maxOpen int
	starts  map[string]int
	dones   map[string]int
}

func newSpanLog(r *Runner) *spanLog {
	l := &spanLog{starts: map[string]int{}, dones: map[string]int{}}
	r.ProgressStart = func(w, s string) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.starts[w+"/"+s]++
		l.open++
		if l.open > l.maxOpen {
			l.maxOpen = l.open
		}
	}
	r.ProgressDone = func(w, s string, _ time.Duration, _ error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.dones[w+"/"+s]++
		l.open--
	}
	return l
}

func (l *spanLog) check(t *testing.T, cells, jobs int) {
	t.Helper()
	if len(l.starts) != cells || len(l.dones) != cells {
		t.Errorf("spans for %d started and %d finished cells, want %d", len(l.starts), len(l.dones), cells)
	}
	for cell, n := range l.starts {
		if n != 1 || l.dones[cell] != 1 {
			t.Errorf("%s: %d starts and %d dones, want one each", cell, n, l.dones[cell])
		}
	}
	if l.maxOpen > jobs {
		t.Errorf("%d spans open at once with %d jobs", l.maxOpen, jobs)
	}
}

// TestTable4SharesBaselinePass: Table IV runs one baseline pass per
// workload for its baseline and oracle cells, prints identical bytes at
// any job count, and reports exactly one progress span per cell.
func TestTable4SharesBaselinePass(t *testing.T) {
	n := len(trace.Workloads())
	var outs []string
	for _, jobs := range []int{1, 4} {
		r := NewRunner(pairTestParams)
		r.SetJobs(jobs)
		spans := newSpanLog(r)
		held := trackPlans(r)
		s, err := Table4(r)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, s.Format())
		spans.check(t, n*6, jobs)
		if shared, alone := r.RecordPasses(); shared != int64(n) || alone != 0 {
			t.Errorf("jobs=%d: %d shared and %d lone record passes, want %d and 0", jobs, shared, alone, n)
		}
		if h := held(); len(h) != 0 {
			t.Errorf("jobs=%d: nodes still held after Table IV: %v", jobs, h)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("Table IV differs between jobs=1 and jobs=4:\n%s\n%s", outs[0], outs[1])
	}
}

// TestPairConsumerWaitsOutsideItsSpan: the cell that consumes a shared
// pass opens its progress span, and so takes its pool slot, only once the
// pass is published; the wait never counts as its work.
func TestPairConsumerWaitsOutsideItsSpan(t *testing.T) {
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "mcf"), testWorkload(t, "sssp")}
	both := []Setup{Baseline(), OracleSetup()}
	r := NewRunner(pairTestParams)
	r.SetJobs(4)
	var plan *gridPlan
	r.onPlan = func(p *gridPlan) { plan = p }
	r.ProgressStart = func(w, s string) {
		e := plan.edges[w+"/"+s]
		if e == nil || !e.pass {
			t.Errorf("%s/%s takes no shared pass", w, s)
			return
		}
		if e.computes {
			return // the pass leader
		}
		select {
		case <-e.done:
		default:
			t.Errorf("%s/%s opened its span before the shared pass was published", w, s)
		}
	}
	if err := r.RunGrid(ws, both); err != nil {
		t.Fatal(err)
	}
	if shared, _ := r.RecordPasses(); shared != int64(len(ws)) {
		t.Errorf("%d shared record passes, want %d", shared, len(ws))
	}
}

// pairGridResults runs the baseline and oracle cells of ws on r and
// returns them by cell name.
func pairGridResults(t *testing.T, r *Runner, ws []trace.Workload) map[string]sim.Result {
	t.Helper()
	out := map[string]sim.Result{}
	for _, w := range ws {
		for _, su := range []Setup{Baseline(), OracleSetup()} {
			res, err := r.Run(w, su)
			if err != nil {
				t.Fatal(err)
			}
			out[w.Name+"/"+su.Name] = res
		}
	}
	return out
}

// TestSharedPassMatchesFallbacks: every path that runs the oracle's record
// pass on its own — an oracle-only grid, a grid whose baseline is already
// memoized here or in a persistent memo — gives the shared pass's results,
// and the record-pass counters tell the paths apart. So do -trace-dir's
// streamed mode and a grid over a fresh persistent memo, which share the
// pass too.
func TestSharedPassMatchesFallbacks(t *testing.T) {
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "mcf")}
	both := []Setup{Baseline(), OracleSetup()}

	ref := NewRunner(pairTestParams)
	ref.SetJobs(2)
	if err := ref.RunGrid(ws, both); err != nil {
		t.Fatal(err)
	}
	want := pairGridResults(t, ref, ws)

	memo := &memMemo{}
	cases := []struct {
		name          string
		run           func(r *Runner) error
		shared, alone int64
	}{
		{"shared", func(r *Runner) error { return r.RunGrid(ws, both) }, 2, 0},
		{"oracle-then-baseline", func(r *Runner) error {
			if err := r.RunGrid(ws, []Setup{OracleSetup()}); err != nil {
				return err
			}
			return r.RunGrid(ws, []Setup{Baseline()})
		}, 0, 2},
		{"baseline-memoized", func(r *Runner) error {
			if err := r.RunGrid(ws, []Setup{Baseline()}); err != nil {
				return err
			}
			return r.RunGrid(ws, both)
		}, 0, 2},
		{"trace-dir", func(r *Runner) error {
			r.SetTraceDir(t.TempDir())
			return r.RunGrid(ws, both)
		}, 2, 0},
		{"memo-fresh", func(r *Runner) error {
			r.Memo = &memMemo{}
			return r.RunGrid(ws, both)
		}, 2, 0},
		{"memo-fill", func(r *Runner) error {
			r.Memo = memo
			return r.RunGrid(ws, []Setup{Baseline()})
		}, 0, 0},
		{"memo-resume", func(r *Runner) error {
			r.Memo = memo
			return r.RunGrid(ws, both)
		}, 0, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRunner(pairTestParams)
			r.SetJobs(2)
			if err := c.run(r); err != nil {
				t.Fatal(err)
			}
			if c.name != "memo-fill" {
				got := pairGridResults(t, r, ws)
				for cell, res := range want {
					if !reflect.DeepEqual(got[cell], res) {
						t.Errorf("%s diverged from the shared pass:\n  got  %+v\n  want %+v", cell, got[cell], res)
					}
				}
			}
			if shared, alone := r.RecordPasses(); shared != c.shared || alone != c.alone {
				t.Errorf("record passes: %d shared, %d alone; want %d, %d", shared, alone, c.shared, c.alone)
			}
		})
	}
}

// TestCanceledSharedPassIsEvicted: a shared pass canceled while it runs is
// dropped, not memoized: its consumer neither hangs nor replays the abort,
// the grid leaves no node holding anything, and the same runner shares a
// fresh pass on the next grid.
func TestCanceledSharedPassIsEvicted(t *testing.T) {
	w := testWorkload(t, "cc")
	ws := []trace.Workload{w}
	both := []Setup{Baseline(), OracleSetup()}

	r := NewRunner(pairTestParams)
	r.SetJobs(2)
	// Materialize the trace first, so a canceled pass gets past its
	// generator and aborts inside the simulation.
	if _, err := r.Run(w, DPPredSetup()); err != nil {
		t.Fatal(err)
	}
	nodes := trackPlans(r)
	held := func() (held, memoized int) {
		for _, su := range both {
			if r.results.has(w.Name + "/" + su.Name) {
				memoized++
			}
		}
		return len(nodes()), memoized
	}
	// cancelOnStart cancels as the first cell starts and returns the
	// first cell's error.
	cancelOnStart := func() (context.Context, func() error) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		var mu sync.Mutex
		var first error
		r.ProgressStart = func(string, string) { cancel() }
		r.ProgressDone = func(_, _ string, _ time.Duration, err error) {
			mu.Lock()
			defer mu.Unlock()
			if first == nil {
				first = err
			}
		}
		return ctx, func() error {
			mu.Lock()
			defer mu.Unlock()
			return first
		}
	}

	// Both cells claimed the pass; the leader is canceled inside it.
	ctx, leaderErr := cancelOnStart()
	if err := r.RunGridContext(ctx, ws, both); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled grid returned %v, want a context.Canceled wrap", err)
	}
	if err := leaderErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("the pass leader finished with %v, want a cancellation", err)
	}
	if held, memoized := held(); held != 0 || memoized != 0 {
		t.Fatalf("after a canceled grid: %d nodes held, %d cells memoized; want none", held, memoized)
	}

	r.ProgressStart, r.ProgressDone = nil, nil
	if err := r.RunGrid(ws, both); err != nil {
		t.Fatalf("grid after cancellation failed: %v", err)
	}
	if shared, alone := r.RecordPasses(); shared != 1 || alone != 0 {
		t.Errorf("record passes after the re-run: %d shared, %d alone; want 1, 0", shared, alone)
	}
	ref := NewRunner(pairTestParams)
	want := pairGridResults(t, ref, ws)
	got := pairGridResults(t, r, ws)
	for cell, res := range want {
		if !reflect.DeepEqual(got[cell], res) {
			t.Errorf("%s after recovery diverged from a fresh run", cell)
		}
	}
}
