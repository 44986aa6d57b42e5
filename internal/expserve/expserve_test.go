package expserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Integration fault matrix for the sharded experiment service: a
// coordinator mounted on a live obs/serve server, real workers pulling
// over HTTP, and the exp.Runner plugged in as it is in paperexp
// -coordinator mode, the DiskMemo as its persistent memo.

var serveTestParams = exp.Params{Warmup: 2_000, Measure: 6_000, Seed: 1, SampleEvery: 2_000}

func serveWorkload(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// localGrid computes the single-process reference results.
func localGrid(t *testing.T, workloads []trace.Workload, setups []exp.Setup) map[string]sim.Result {
	t.Helper()
	r := exp.NewRunner(serveTestParams)
	out := make(map[string]sim.Result)
	for _, w := range workloads {
		for _, su := range setups {
			res, err := r.Run(w, su)
			if err != nil {
				t.Fatal(err)
			}
			out[w.Name+"/"+su.Name] = res
		}
	}
	return out
}

// fastTimings shrinks the scheduling clocks so fault paths play out in
// milliseconds.
func fastTimings(c *Coordinator) {
	c.LeaseTTL = 250 * time.Millisecond
	c.ScanEvery = 25 * time.Millisecond
	c.RetryBackoff = 10 * time.Millisecond
	c.PollInterval = 20 * time.Millisecond
}

// plane mounts coord on a monitoring server behind httptest, with the
// coordinator's and memo's probes on the server's registry, and runs the
// requeue scanner; both stop when the test ends. It returns the server's
// base URL.
func plane(t *testing.T, coord *Coordinator, memo *DiskMemo) string {
	t.Helper()
	reg := obs.NewRegistry()
	srv := serve.NewServer(reg, serve.NewBoard())
	coord.Mount(srv, reg)
	memo.RegisterProbes(reg)
	ts := httptest.NewServer(srv.Handler())
	coord.Start()
	t.Cleanup(func() {
		ts.Close()
		coord.Stop()
	})
	return ts.URL
}

// sweepStatus is one sweep's split, as paperexp's "coordinator status:"
// line reports it: the coordinator's cell table and the memo's counters.
type sweepStatus struct {
	Counts
	MemoStats
}

// runSweep drives one full distributed sweep: a coordinator behind a
// monitoring server, nWorkers real workers, a runner executing the grid
// through Coordinator.Execute over the DiskMemo in memoDir. Returns every
// cell's result and the final status.
func runSweep(t *testing.T, memoDir string, workloads []trace.Workload, setups []exp.Setup, nWorkers int) (map[string]sim.Result, sweepStatus) {
	t.Helper()
	memo, err := OpenDiskMemo(memoDir)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(serveTestParams)
	coord.Log = io.Discard
	fastTimings(coord)
	url := plane(t, coord, memo)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerConfig{
				Coordinator: url,
				Jobs:        1,
				ID:          fmt.Sprintf("w%d", i),
				Log:         io.Discard,
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}

	r := exp.NewRunner(serveTestParams)
	r.Memo = memo
	r.Executor = coord.Execute
	if err := r.RunGrid(workloads, setups); err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	wg.Wait()

	out := make(map[string]sim.Result)
	for _, w := range workloads {
		for _, su := range setups {
			res, err := r.Run(w, su) // served from the runner's in-memory memo
			if err != nil {
				t.Fatal(err)
			}
			out[w.Name+"/"+su.Name] = res
		}
	}
	status := sweepStatus{coord.Counts(), memo.Stats()}
	// Every cell is a catalog cell, so each one is a memo hit or in the
	// coordinator's table, never both.
	if got := int(status.Hits) + status.Computed + status.Failed + status.Queued + status.Leased; got != len(out) {
		t.Fatalf("status %+v accounts for %d cells, want %d", status, got, len(out))
	}
	return out, status
}

// TestDistributedMatchesLocal: a two-worker sweep is byte-identical to the
// single-process pool, every cell computed exactly once, nothing failed.
func TestDistributedMatchesLocal(t *testing.T) {
	workloads := []trace.Workload{serveWorkload(t, "cc"), serveWorkload(t, "mcf")}
	setups := []exp.Setup{exp.Baseline(), exp.DPPredSetup()}
	want := localGrid(t, workloads, setups)

	got, status := runSweep(t, t.TempDir(), workloads, setups, 2)
	for cell, w := range want {
		if !reflect.DeepEqual(got[cell], w) {
			t.Errorf("cell %s: distributed result diverges from local", cell)
		}
	}
	if status.Computed != len(want) || status.Hits != 0 || status.Failed != 0 {
		t.Fatalf("first sweep status: %+v", status)
	}
}

// TestCoordinatorRestartComputesOnlyDelta: after a completed sweep, a new
// coordinator over the same memo dir serves every old cell from disk and
// schedules only cells it has never seen.
func TestCoordinatorRestartComputesOnlyDelta(t *testing.T) {
	dir := t.TempDir()
	workloads := []trace.Workload{serveWorkload(t, "cc"), serveWorkload(t, "mcf")}
	setups := []exp.Setup{exp.Baseline(), exp.DPPredSetup()}

	first, status := runSweep(t, dir, workloads, setups, 1)
	if status.Computed != 4 {
		t.Fatalf("seed sweep computed %d cells, want 4", status.Computed)
	}

	// Same grid, fresh coordinator: all memo, no compute.
	second, status := runSweep(t, dir, workloads, setups, 1)
	if status.Hits != 4 || status.Computed != 0 {
		t.Fatalf("identical re-run: %+v, want 4 memo hits and 0 computed", status)
	}
	for cell, w := range first {
		if !reflect.DeepEqual(second[cell], w) {
			t.Errorf("cell %s changed across a coordinator restart", cell)
		}
	}

	// Grown grid: only the new column computes.
	grown := append(setups, exp.OracleSetup())
	third, status := runSweep(t, dir, workloads, grown, 1)
	if status.Hits != 4 || status.Computed != 2 {
		t.Fatalf("grown re-run: %+v, want 4 memo hits and 2 computed", status)
	}
	for cell, w := range first {
		if !reflect.DeepEqual(third[cell], w) {
			t.Errorf("cell %s changed when the grid grew", cell)
		}
	}
}

// TestCorruptMemoEntryRecomputed: damaging one entry on disk costs exactly
// one recompute — the entry is rejected, evicted (counted) and rebuilt; the rest of
// the sweep stays memo-served and the grid stays byte-identical.
func TestCorruptMemoEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	workloads := []trace.Workload{serveWorkload(t, "cc")}
	setups := []exp.Setup{exp.Baseline(), exp.DPPredSetup()}
	first, _ := runSweep(t, dir, workloads, setups, 1)

	fp, err := exp.WorkloadFingerprint(workloads[0], serveTestParams.Seed, serveTestParams.Warmup+serveTestParams.Measure)
	if err != nil {
		t.Fatal(err)
	}
	key := exp.CellKey(fp, exp.Baseline(), serveTestParams)
	flipByte(t, filepath.Join(dir, key, "result.json"))

	second, status := runSweep(t, dir, workloads, setups, 1)
	if status.Hits != 1 || status.Computed != 1 || status.Evictions != 1 {
		t.Fatalf("post-corruption sweep: %+v, want 1 memo hit, 1 recompute and 1 eviction", status)
	}
	for cell, w := range first {
		if !reflect.DeepEqual(second[cell], w) {
			t.Errorf("cell %s diverges after corruption recovery", cell)
		}
	}
}

// leaseAs performs one raw lease request, as a fake worker would.
func leaseAs(t *testing.T, url, worker string) LeaseReply {
	t.Helper()
	b, _ := json.Marshal(LeaseRequest{Worker: worker})
	resp, err := http.Post(url+"/cells", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply LeaseReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// ghostLease polls until the fake worker holds a cell lease.
func ghostLease(t *testing.T, url string) LeaseReply {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reply := leaseAs(t, url, "ghost"); reply.Status == LeaseCell {
			return reply
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("ghost never obtained a lease")
	return LeaseReply{}
}

// TestLostWorkerRequeues is the kill -9 fault: a worker leases a cell,
// goes silent (no heartbeat, no result), and the coordinator requeues the
// cell to a live worker; the sweep completes with the correct bytes.
func TestLostWorkerRequeues(t *testing.T) {
	w := serveWorkload(t, "cc")
	want := localGrid(t, []trace.Workload{w}, []exp.Setup{exp.Baseline()})["cc/baseline"]

	memo, err := OpenDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(serveTestParams)
	var logBuf syncBuffer
	coord.Log = &logBuf
	fastTimings(coord)
	url := plane(t, coord, memo)

	r := exp.NewRunner(serveTestParams)
	r.Memo = memo
	r.Executor = coord.Execute
	type runOut struct {
		res sim.Result
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		res, err := r.Run(w, exp.Baseline())
		resCh <- runOut{res, err}
	}()

	// The doomed worker takes the lease and dies silently.
	ghost := ghostLease(t, url)
	if ghost.Cell == nil || ghost.Cell.Workload != "cc" {
		t.Fatalf("ghost leased unexpected cell %+v", ghost.Cell)
	}

	// A live worker joins; it can only get the cell via lease expiry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(ctx, WorkerConfig{Coordinator: url, Jobs: 1, ID: "live", Log: io.Discard}); err != nil {
			t.Errorf("live worker: %v", err)
		}
	}()

	out := <-resCh
	if out.err != nil {
		t.Fatalf("sweep failed after worker loss: %v", out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Fatal("requeued cell diverges from the local reference")
	}
	coord.Finish()
	wg.Wait()
	if st := coord.Counts(); st.Requeues < 1 || st.Computed != 1 {
		t.Fatalf("status after worker loss: %+v, want ≥1 requeue and 1 computed", st)
	}
	if !strings.Contains(logBuf.String(), "requeued cc/baseline (worker ghost lost") {
		t.Fatalf("requeue not logged; log was:\n%s", logBuf.String())
	}
}

// TestWorkerErrorIsTerminal: an execution error reported by a worker fails
// the cell immediately — deterministic cells are never retried on another
// machine — and the waiting sweep sees the message.
func TestWorkerErrorIsTerminal(t *testing.T) {
	memo, err := OpenDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(serveTestParams)
	coord.Log = io.Discard
	fastTimings(coord)
	url := plane(t, coord, memo)

	w := serveWorkload(t, "cc")
	r := exp.NewRunner(serveTestParams)
	r.Memo = memo
	r.Executor = coord.Execute
	errCh := make(chan error, 1)
	go func() {
		_, err := r.Run(w, exp.Baseline())
		errCh <- err
	}()

	ghost := ghostLease(t, url)
	postResult(t, url, ResultPost{Key: ghost.Cell.Key, Worker: "ghost", Error: "synthetic cell failure"})

	runErr := <-errCh
	if runErr == nil || !strings.Contains(runErr.Error(), "synthetic cell failure") {
		t.Fatalf("sweep error = %v, want the worker's message", runErr)
	}
	if st := coord.Counts(); st.Failed != 1 || st.Requeues != 0 {
		t.Fatalf("status after terminal error: %+v, want 1 failed and 0 requeues", st)
	}
	if m, err := os.ReadDir(memo.Dir()); err != nil || len(m) != 0 {
		t.Fatalf("failed cell leaked into the memo: %v %v", m, err)
	}
}

// postResult delivers one raw result, as a worker would.
func postResult(t *testing.T, url string, post ResultPost) {
	t.Helper()
	b, _ := json.Marshal(post)
	resp, err := http.Post(url+"/cells/result", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result post answered %s", resp.Status)
	}
}

// get fetches one monitoring route and returns its body.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %v", url, resp.Status, err)
	}
	return string(body)
}

// TestOnePlaneServesLeasesAndMonitoring: the server paperexp -coordinator
// starts answers the lease protocol and the monitoring routes on one
// address, and /metrics carries the coordinator's and the memo's series.
func TestOnePlaneServesLeasesAndMonitoring(t *testing.T) {
	w := serveWorkload(t, "cc")
	want := localGrid(t, []trace.Workload{w}, []exp.Setup{exp.Baseline()})["cc/baseline"]

	memo, err := OpenDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(serveTestParams)
	coord.Log = io.Discard
	fastTimings(coord)
	reg, board := obs.NewRegistry(), serve.NewBoard()
	srv := serve.NewServer(reg, board)
	coord.Mount(srv, reg)
	memo.RegisterProbes(reg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	defer func() {
		coord.Stop()
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	url := "http://" + addr

	r := exp.NewRunner(serveTestParams)
	r.Memo, r.Executor, r.Status = memo, coord.Execute, board
	errCh := make(chan error, 1)
	go func() { errCh <- r.RunGrid([]trace.Workload{w}, []exp.Setup{exp.Baseline()}) }()

	ghost := ghostLease(t, url)
	if body := get(t, url+"/metrics"); !strings.Contains(body, "\nexpserve_leased 1\n") ||
		!strings.Contains(body, "\nexpserve_memo_misses 1\n") {
		t.Fatalf("mid-sweep /metrics lacks the coordinator's and memo's series:\n%s", body)
	}
	var st serve.Status
	if err := json.Unmarshal([]byte(get(t, url+"/status")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Running != 1 || len(st.Cells) != 1 {
		t.Fatalf("mid-sweep /status = %+v, want the leased cell running", st)
	}
	if body := get(t, url+"/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}

	postResult(t, url, ResultPost{Key: ghost.Cell.Key, Worker: "ghost", Result: &want})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	if reply := leaseAs(t, url, "late"); reply.Status != LeaseDone {
		t.Fatalf("lease after the sweep = %+v, want done", reply)
	}
	if body := get(t, url+"/metrics"); !strings.Contains(body, "\nexpserve_computed 1\n") {
		t.Fatalf("/metrics after the sweep lacks expserve_computed 1:\n%s", body)
	}
	if st = board.Status(); st.Done != 1 || st.Pending != 0 {
		t.Fatalf("/status after the sweep = %+v, want the cell done", st)
	}
	if _, ok, err := memo.Get(ghost.Cell.Key); err != nil || !ok {
		t.Fatalf("the runner did not persist the worker's result: ok=%v err=%v", ok, err)
	}
}

// TestAdhocLocalCellMemoized: in coordinator mode a cell no worker can
// rebuild runs locally, and the runner stores it in the memo like any
// other, so a restarted coordinator serves it from disk.
func TestAdhocLocalCellMemoized(t *testing.T) {
	w := serveWorkload(t, "cc")
	adhoc := exp.Setup{Name: "adhoc-local"}
	memo, err := OpenDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	for run := 0; run < 2; run++ {
		coord := NewCoordinator(serveTestParams)
		r := exp.NewRunner(serveTestParams)
		r.Memo, r.Executor = memo, coord.Execute
		r.ProgressStart = func(_, _ string) { computed.Add(1) }
		if _, err := r.Run(w, adhoc); err != nil {
			t.Fatal(err)
		}
		if n := coord.Counts(); n != (Counts{}) {
			t.Fatalf("run %d: the coordinator saw the ad-hoc cell: %+v", run, n)
		}
	}
	if computed.Load() != 1 || memo.Len() != 1 {
		t.Fatalf("ad-hoc cell computed %d times, memo holds %d entries; want 1 and 1", computed.Load(), memo.Len())
	}
	if st := memo.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("memo counters = %+v, want the restart served from disk", st)
	}
}

// TestCanceledExecuteWithdrawsCell: a Run canceled while its cell waits in
// the coordinator's queue withdraws the cell, so no worker computes an
// orphan nobody persists, Finish can answer done at once, and a late
// result for the cell is dropped.
func TestCanceledExecuteWithdrawsCell(t *testing.T) {
	memo, err := OpenDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(serveTestParams)
	url := plane(t, coord, memo)

	w := serveWorkload(t, "cc")
	r := exp.NewRunner(serveTestParams)
	r.Memo, r.Executor = memo, coord.Execute
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := r.RunContext(ctx, w, exp.Baseline())
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for coord.Counts().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("cell never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run returned %v", err)
	}
	coord.Finish()
	if reply := leaseAs(t, url, "late"); reply.Status != LeaseDone {
		t.Fatalf("lease after a withdrawn cell = %+v, want done", reply)
	}

	fp, err := exp.WorkloadFingerprint(w, serveTestParams.Seed, serveTestParams.Warmup+serveTestParams.Measure)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Result{Instructions: 1}
	postResult(t, url, ResultPost{Key: exp.CellKey(fp, exp.Baseline(), serveTestParams), Worker: "late", Result: &res})
	if n := coord.Counts(); n != (Counts{}) || memo.Len() != 0 {
		t.Fatalf("withdrawn cell left counts %+v and %d memo entries", n, memo.Len())
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
