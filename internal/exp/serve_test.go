package exp

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestHistogramsDeterministicAcrossJobs: histogram buckets are atomic and
// commutative and probes read deterministic simulations, so the full
// metrics state after a grid must be byte-identical whatever the
// worker-pool width — same contract TestParallelMatchesSequential pins for
// results.
func TestHistogramsDeterministicAcrossJobs(t *testing.T) {
	ws := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "sssp")}
	setups := []Setup{Baseline(), DPPredSetup(), DPPredCBPredSetup()}
	grid := func(jobs int) (map[string]obs.HistogramSnapshot, obs.Snapshot) {
		t.Helper()
		r := NewRunner(cancelTestParams)
		r.SetJobs(jobs)
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		r.Observer = o
		if err := r.RunGrid(ws, setups); err != nil {
			t.Fatal(err)
		}
		return o.Metrics.Histograms(), o.Metrics.Snapshot()
	}

	h1, s1 := grid(1)
	h8, s8 := grid(8)
	if !reflect.DeepEqual(h1, h8) {
		t.Fatal("histograms differ between jobs=1 and jobs=8")
	}
	if !reflect.DeepEqual(s1, s8) {
		for name, v := range s1 {
			if s8[name] != v {
				t.Errorf("metric %s: jobs=1 %v, jobs=8 %v", name, v, s8[name])
			}
		}
		t.Fatal("metric snapshots differ between jobs=1 and jobs=8")
	}

	// The telemetry is live, not just registered: per-access latency lands
	// in every run's histogram, and the confusion tracker grades dpPred's
	// predictions.
	if hs := h1["cc/dpPred/hist.mem_latency"]; hs.Count == 0 {
		t.Fatalf("mem-latency histogram empty: %v", reflect.ValueOf(h1).MapKeys())
	}
	if hs := h1["cc/baseline/hist.llt_lifetime"]; hs.Count == 0 {
		t.Fatal("llt-lifetime histogram empty")
	}
	if _, ok := s1["cc/dpPred/conf.llt.premature_rate"]; !ok {
		t.Fatal("confusion premature-rate probe missing from snapshot")
	}
	if s1["cc/dpPred/conf.llt.true_dead"]+s1["cc/dpPred/conf.llt.premature"] !=
		s1["cc/dpPred/pred.tlb.predictions"] {
		t.Fatalf("mirror grading disagrees with dpPred's own prediction count: %v vs %v+%v",
			s1["cc/dpPred/pred.tlb.predictions"],
			s1["cc/dpPred/conf.llt.true_dead"], s1["cc/dpPred/conf.llt.premature"])
	}
}

// TestServeDuringGridCancellation drives the full monitoring plane over
// httptest: /metrics, /status and /events answer mid-grid, cancellation
// mid-run surfaces as failed cells without leaking goroutines, and the
// recovered grid serves histogram series and memo hits.
func TestServeDuringGridCancellation(t *testing.T) {
	g0 := runtime.NumGoroutine()

	r := NewRunner(cancelTestParams)
	r.SetJobs(2)
	board := serve.NewBoard()
	r.Status = board
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	r.Observer = o
	srv := serve.NewServer(o.Metrics, board)
	ts := httptest.NewServer(srv.Handler())

	w := testWorkload(t, "cc")
	started := make(chan struct{})
	release := make(chan struct{})
	slow := Setup{Name: "slow-cell", TLB: func(s *sim.System) (pred.TLBPredictor, error) {
		close(started) // single-flight: constructed exactly once
		<-release
		return newDPPred(s)
	}}

	// Subscribe to the event stream before anything runs, so the cell
	// transitions cannot race past us.
	events, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sseLines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(events.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				sseLines <- strings.TrimPrefix(line, "data: ")
			}
		}
		close(sseLines)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gridErr := make(chan error, 1)
	go func() {
		gridErr <- r.RunGridContext(ctx, []trace.Workload{w}, []Setup{slow, Baseline()})
	}()

	<-started // the slow cell holds its pool slot: the grid is mid-flight

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s mid-grid: status %d err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	var st serve.Status
	if err := json.Unmarshal([]byte(get("/status")), &st); err != nil {
		t.Fatalf("mid-grid /status not JSON: %v", err)
	}
	if len(st.Cells) != 2 {
		t.Fatalf("mid-grid status shows %d cells, want 2: %+v", len(st.Cells), st)
	}
	if st.Running == 0 {
		t.Fatalf("mid-grid status shows no running cell: %+v", st)
	}
	get("/metrics") // must answer while simulations run
	get("/healthz")

	// The stream must already have delivered the queued cells and the slow
	// cell's start.
	sawStart := false
	deadline := time.After(5 * time.Second)
	for !sawStart {
		select {
		case line := <-sseLines:
			var ev serve.Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			if ev.Type == "start" && ev.Setup == "slow-cell" {
				sawStart = true
			}
		case <-deadline:
			t.Fatal("SSE stream never delivered the slow cell's start event")
		}
	}

	// Cancel mid-run, then release the gate so the slow cell can observe
	// the cancellation.
	cancel()
	close(release)
	if err := <-gridErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled grid returned %v", err)
	}
	st = board.Status()
	if st.Running != 0 || st.Failed == 0 {
		t.Fatalf("post-cancel status: %+v", st)
	}

	// Recovery: the same runner completes the grid (canceled memos were
	// evicted), a replayed cell counts as a memo hit, and /metrics now
	// carries live histogram series.
	if err := r.RunGrid([]trace.Workload{w}, []Setup{Baseline()}); err != nil {
		t.Fatalf("grid after cancellation failed: %v", err)
	}
	if _, err := r.Run(w, Baseline()); err != nil {
		t.Fatal(err)
	}
	if st = board.Status(); st.MemoHits == 0 {
		t.Fatalf("memoized replay not counted: %+v", st)
	}
	if metrics := get("/metrics"); !strings.Contains(metrics, "hist_mem_latency_bucket") {
		t.Fatalf("post-grid /metrics missing histogram buckets:\n%.2000s", metrics)
	}

	// Tear down the SSE stream and server, then require every goroutine
	// (pool workers, memo waiters, SSE plumbing) to drain.
	events.Body.Close()
	for range sseLines {
	}
	ts.Close()
	leakDeadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > g0+2 && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > g0+2 {
		t.Errorf("goroutines leaked: %d before, %d after", g0, n)
	}
}

// TestBoardDrainsOnMemoResume: a grid served entirely from the persistent
// memo finishes with every row done, not pending, so a resumed run's
// /status drains like a computed one.
func TestBoardDrainsOnMemoResume(t *testing.T) {
	w := testWorkload(t, "cc")
	setups := []Setup{Baseline(), DPPredSetup()}
	memo := &memMemo{}
	r1 := NewRunner(cellTestParams)
	r1.Memo = memo
	if err := r1.RunGrid([]trace.Workload{w}, setups); err != nil {
		t.Fatal(err)
	}

	board := serve.NewBoard()
	r2 := NewRunner(cellTestParams)
	r2.Memo, r2.Status = memo, board
	if err := r2.RunGrid([]trace.Workload{w}, setups); err != nil {
		t.Fatal(err)
	}
	if st := board.Status(); st.Pending != 0 || st.Done != 2 || st.MemoHits != 2 {
		t.Fatalf("resumed grid's board: pending=%d done=%d memo_hits=%d, want 0, 2, 2",
			st.Pending, st.Done, st.MemoHits)
	}
}
