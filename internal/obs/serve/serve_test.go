package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func testRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	run := reg.Sub("cc/dpPred/")
	run.RegisterProbe("llt.misses", func() float64 { return 42 })
	run.RegisterProbe("conf.llt.premature_rate", func() float64 { return 0.125 })
	h := run.Histogram("hist.mem_latency")
	h.Observe(3)
	h.Observe(3)
	h.Observe(200)
	reg.RegisterProbe("grid.jobs", func() float64 { return 8 })
	return reg
}

// TestWriteProm pins the exposition format: run labels from registry
// prefixes, sanitized metric names, cumulative histogram buckets with
// power-of-two bounds, and no duplicate series from the flattened
// histogram scalars.
func TestWriteProm(t *testing.T) {
	var sb strings.Builder
	if err := WriteProm(&sb, testRegistry()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE llt_misses untyped\n",
		`llt_misses{run="cc/dpPred"} 42` + "\n",
		`conf_llt_premature_rate{run="cc/dpPred"} 0.125` + "\n",
		"grid_jobs 8\n",
		"# TYPE hist_mem_latency histogram\n",
		// 3 → bucket 2 (le 3), 200 → bucket 8 (le 255); cumulative.
		`hist_mem_latency_bucket{run="cc/dpPred",le="3"} 2` + "\n",
		`hist_mem_latency_bucket{run="cc/dpPred",le="255"} 3` + "\n",
		`hist_mem_latency_bucket{run="cc/dpPred",le="+Inf"} 3` + "\n",
		`hist_mem_latency_sum{run="cc/dpPred"} 206` + "\n",
		`hist_mem_latency_count{run="cc/dpPred"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The flat snapshot's name.count/.sum/.mean views must not leak as
	// extra untyped families next to the real histogram series.
	if strings.Contains(out, "hist_mem_latency_mean") ||
		strings.Contains(out, "# TYPE hist_mem_latency_count") {
		t.Errorf("flattened histogram scalars leaked into exposition:\n%s", out)
	}
	if WriteProm(io.Discard, nil) != nil {
		t.Error("nil registry must serve empty output")
	}
}

// TestBoardLifecycle walks a two-cell grid through its transitions and
// checks the status snapshot and event stream agree.
func TestBoardLifecycle(t *testing.T) {
	b := NewBoard()
	events, cancel := b.Subscribe()
	defer cancel()

	b.CellQueued("cc", "baseline")
	b.CellQueued("cc", "dpPred")
	b.CellStart("cc", "baseline")
	b.CellDone("cc", "baseline", 250*time.Millisecond, nil)
	b.CellStart("cc", "dpPred")
	b.CellDone("cc", "dpPred", 100*time.Millisecond, errors.New("kaboom"))
	b.MemoHit("cc", "baseline")
	b.MemoHit("cc", "dpPred")
	// A pending cell served from the persistent memo never runs: the hit
	// finishes it. A running cell belongs to its leader.
	b.CellQueued("cc", "oracle")
	b.MemoHit("cc", "oracle")
	b.CellQueued("cc", "SHiP-TLB")
	b.CellStart("cc", "SHiP-TLB")
	b.MemoHit("cc", "SHiP-TLB")

	st := b.Status()
	if st.Done != 2 || st.Failed != 1 || st.Pending != 0 || st.Running != 1 {
		t.Fatalf("status counts = %+v", st)
	}
	if st.MemoHits != 4 {
		t.Fatalf("memo hits = %d, want 4", st.MemoHits)
	}
	if len(st.Cells) != 4 || st.Cells[0].Setup != "baseline" || st.Cells[1].Setup != "dpPred" ||
		st.Cells[2].Setup != "oracle" || st.Cells[3].Setup != "SHiP-TLB" {
		t.Fatalf("cells out of queue order: %+v", st.Cells)
	}
	if st.Cells[0].State != Done || st.Cells[0].ElapsedMS != 250 {
		t.Fatalf("baseline cell = %+v", st.Cells[0])
	}
	if st.Cells[1].State != Failed || st.Cells[1].Error != "kaboom" {
		t.Fatalf("failed cell = %+v", st.Cells[1])
	}
	if st.Cells[2].State != Done || st.Cells[2].ElapsedMS != 0 {
		t.Fatalf("memo-served pending cell = %+v", st.Cells[2])
	}
	if st.Cells[3].State != Running {
		t.Fatalf("running cell after a memo hit = %+v", st.Cells[3])
	}

	wantTypes := []string{"queued", "queued", "start", "done", "start", "failed", "memo_hit", "memo_hit",
		"queued", "memo_hit", "queued", "start", "memo_hit"}
	for i, wt := range wantTypes {
		select {
		case ev := <-events:
			if ev.Type != wt {
				t.Fatalf("event %d = %q, want %q", i, ev.Type, wt)
			}
		default:
			t.Fatalf("event %d (%q) missing", i, wt)
		}
	}
}

// TestServerEndpoints smoke-tests every route over httptest.
func TestServerEndpoints(t *testing.T) {
	board := NewBoard()
	board.CellQueued("cc", "baseline")
	board.CellStart("cc", "baseline")
	srv := NewServer(testRegistry(), board)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		return resp, string(body)
	}

	if _, body := get("/healthz"); body != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "hist_mem_latency_bucket") {
		t.Fatalf("metrics missing histogram series:\n%s", body)
	}
	_, body := get("/status")
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, body)
	}
	if st.Running != 1 || len(st.Cells) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if _, body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}

	// SSE: subscribe, trigger a transition, read it off the stream.
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	board.CellDone("cc", "baseline", 50*time.Millisecond, nil)
	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	var ev Event
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		break
	}
	if ev.Type != "done" || ev.Workload != "cc" || ev.Setup != "baseline" {
		t.Fatalf("SSE event = %+v", ev)
	}
}

// TestServerStartShutdown binds :0 for real, checks liveness over TCP, and
// verifies Shutdown releases an open SSE stream instead of hanging.
func TestServerStartShutdown(t *testing.T) {
	board := NewBoard()
	srv := NewServer(obs.NewRegistry(), board)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	events, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := contextWithTimeout(3 * time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on the open SSE stream")
	}
	// Idempotent: a second shutdown is a no-op.
	ctx, cancel := contextWithTimeout(time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
