package expserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Integration fault matrix for the sharded experiment service: a live
// coordinator over a real listener, real workers pulling over HTTP, and
// the exp.Runner plugged in as it is in paperexp -coordinator mode.

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

// runSweep drives one full distributed sweep: coordinator on a loopback
// port, nWorkers real workers, a runner executing the grid through
// Coordinator.Execute. Returns every cell's result and the final status.
func runSweep(t *testing.T, memoDir string, workloads []trace.Workload, setups []exp.Setup, nWorkers int) (map[string]sim.Result, StatusDoc) {
	t.Helper()
	memo, err := OpenDiskMemo(memoDir)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(memo, serveTestParams)
	coord.Log = io.Discard
	fastTimings(coord)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, coord)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerConfig{
				Coordinator: "http://" + addr,
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
	status := coord.Status()
	if got := status.MemoHits + status.Computed + status.Failed + status.Queued + status.Leased; got != status.Cells {
		t.Fatalf("StatusDoc invariant broken: cells=%d but parts sum to %d", status.Cells, got)
	}
	return out, status
}

func shutdown(t *testing.T, c *Coordinator) {
	t.Helper()
	// The raw http.Post helpers leave keep-alive connections in the
	// default client; close them so the server's graceful Shutdown is not
	// left waiting on them.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
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
	if status.Computed != len(want) || status.MemoHits != 0 || status.Failed != 0 {
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
	if status.MemoHits != 4 || status.Computed != 0 {
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
	if status.MemoHits != 4 || status.Computed != 2 {
		t.Fatalf("grown re-run: %+v, want 4 memo hits and 2 computed", status)
	}
	for cell, w := range first {
		if !reflect.DeepEqual(third[cell], w) {
			t.Errorf("cell %s changed when the grid grew", cell)
		}
	}
}

// TestCorruptMemoEntryRecomputed: damaging one entry on disk costs exactly
// one recompute — the entry is rejected, evicted and rebuilt; the rest of
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
	if status.MemoHits != 1 || status.Computed != 1 {
		t.Fatalf("post-corruption sweep: %+v, want 1 memo hit and 1 recompute", status)
	}
	for cell, w := range first {
		if !reflect.DeepEqual(second[cell], w) {
			t.Errorf("cell %s diverges after corruption recovery", cell)
		}
	}
}

// leaseAs performs one raw lease request, as a fake worker would.
func leaseAs(t *testing.T, addr, worker string) LeaseReply {
	t.Helper()
	b, _ := json.Marshal(LeaseRequest{Worker: worker})
	resp, err := http.Post("http://"+addr+"/cells", "application/json", bytes.NewReader(b))
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
func ghostLease(t *testing.T, addr string) LeaseReply {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reply := leaseAs(t, addr, "ghost"); reply.Status == LeaseCell {
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
	coord := NewCoordinator(memo, serveTestParams)
	var logBuf syncBuffer
	coord.Log = &logBuf
	fastTimings(coord)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, coord)

	r := exp.NewRunner(serveTestParams)
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
	ghost := ghostLease(t, addr)
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
		if err := RunWorker(ctx, WorkerConfig{Coordinator: "http://" + addr, Jobs: 1, ID: "live", Log: io.Discard}); err != nil {
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
	if st := coord.Status(); st.Requeues < 1 || st.Computed != 1 {
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
	coord := NewCoordinator(memo, serveTestParams)
	coord.Log = io.Discard
	fastTimings(coord)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, coord)

	w := serveWorkload(t, "cc")
	r := exp.NewRunner(serveTestParams)
	r.Executor = coord.Execute
	errCh := make(chan error, 1)
	go func() {
		_, err := r.Run(w, exp.Baseline())
		errCh <- err
	}()

	ghost := ghostLease(t, addr)
	b, _ := json.Marshal(ResultPost{Key: ghost.Cell.Key, Worker: "ghost", Error: "synthetic cell failure"})
	resp, err := http.Post("http://"+addr+"/cells/result", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	runErr := <-errCh
	if runErr == nil || !strings.Contains(runErr.Error(), "synthetic cell failure") {
		t.Fatalf("sweep error = %v, want the worker's message", runErr)
	}
	if st := coord.Status(); st.Failed != 1 || st.Requeues != 0 {
		t.Fatalf("status after terminal error: %+v, want 1 failed and 0 requeues", st)
	}
	if m, err := os.ReadDir(memo.Dir()); err != nil || len(m) != 0 {
		t.Fatalf("failed cell leaked into the memo: %v %v", m, err)
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
