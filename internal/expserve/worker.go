package expserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// Jobs bounds concurrent cells (and the runner's pool); values below
	// 1 mean 1.
	Jobs int
	// ID names the worker in leases and logs; empty derives host-pid.
	ID string
	// TraceDir, when set, streams workload traces from compressed DPBF v2
	// files under this directory instead of materializing them in memory
	// (exp.Runner.SetTraceDir).
	TraceDir string
	// Log receives per-cell progress; nil means os.Stderr.
	Log io.Writer
	// Verbose logs each cell's start and finish.
	Verbose bool
}

// worker is the run state behind RunWorker.
type worker struct {
	cfg    WorkerConfig
	client *http.Client

	mu      sync.Mutex
	runners map[exp.Params]*exp.Runner // one runner per parameter set, sharing its result memo across cells
}

// RunWorker pulls cells from a coordinator until the sweep is done, the
// context is canceled, or the coordinator stays unreachable past its
// grace. Each cell is reconstructed by name — trace.ByName for the
// workload, exp.ResolveSetup for the setup — and executed through the
// standard Runner single-cell path, so a distributed cell computes exactly
// the bytes the in-process pool would. While a cell runs, a heartbeat
// keeps its lease alive at a third of the coordinator's TTL.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Jobs < 1 {
		cfg.Jobs = 1
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &worker{
		cfg:     cfg,
		client:  &http.Client{Timeout: 30 * time.Second},
		runners: make(map[exp.Params]*exp.Runner),
	}
	// Drop keep-alive connections on exit: a lingering never-used spare
	// (the transport sometimes races a second dial) would otherwise hold
	// the coordinator's graceful Shutdown hostage for its new-connection
	// grace period.
	defer w.client.CloseIdleConnections()
	var wg sync.WaitGroup
	errs := make([]error, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs[slot] = w.loop(ctx)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *worker) logf(format string, args ...any) {
	out := w.cfg.Log
	if out == nil {
		out = os.Stderr
	}
	fmt.Fprintf(out, "worker %s: "+format+"\n", append([]any{w.cfg.ID}, args...)...)
}

// runner returns the shared runner for one parameter set. Each leased cell
// is a lone Run, a plan of one, so it materializes (or opens) its
// workload's trace itself and releases it when it finishes: a worker holds
// only its running cells' traces, at the cost of one materialization per
// cell.
func (w *worker) runner(p exp.Params) *exp.Runner {
	w.mu.Lock()
	defer w.mu.Unlock()
	r, ok := w.runners[p]
	if !ok {
		r = exp.NewRunner(p)
		r.SetJobs(w.cfg.Jobs)
		if w.cfg.TraceDir != "" {
			r.SetTraceDir(w.cfg.TraceDir)
		}
		w.runners[p] = r
	}
	return r
}

// loop is one lease-execute-report slot.
func (w *worker) loop(ctx context.Context) error {
	// Tolerate a coordinator that starts after the worker, or restarts
	// between polls, for up to this many consecutive connection failures.
	const maxConnFailures = 60
	connFailures := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil // canceled: a clean worker exit
		}
		reply, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			connFailures++
			if connFailures >= maxConnFailures {
				return fmt.Errorf("expserve: coordinator %s unreachable: %w", w.cfg.Coordinator, err)
			}
			if !sleepCtx(ctx, 500*time.Millisecond) {
				return nil
			}
			continue
		}
		connFailures = 0
		switch reply.Status {
		case LeaseDone:
			return nil
		case LeaseCell:
			w.execute(ctx, reply)
		default: // LeaseWait and anything unknown: poll again
			delay := time.Duration(reply.RetryMillis) * time.Millisecond
			if delay <= 0 {
				delay = 250 * time.Millisecond
			}
			if !sleepCtx(ctx, delay) {
				return nil
			}
		}
	}
}

// execute runs one leased cell and reports its outcome. Cell execution
// errors are reported to the coordinator (which fails the cell — they are
// deterministic); only transport errors are the worker's own problem.
func (w *worker) execute(ctx context.Context, reply *LeaseReply) {
	spec := *reply.Cell
	if w.cfg.Verbose {
		w.logf("running %s/%s", spec.Workload, spec.Setup)
	}
	start := time.Now()

	// Heartbeat for the duration of the cell at a third of the TTL.
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	if ttl := time.Duration(reply.TTLMillis) * time.Millisecond; ttl > 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(ttl / 3)
			defer t.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-t.C:
					// A failed or inactive beat is not actionable: the
					// result will be accepted regardless (deterministic
					// cells), so keep computing.
					_ = w.post(hbCtx, "/cells/heartbeat", HeartbeatRequest{Key: spec.Key, Worker: w.cfg.ID}, nil)
				}
			}
		}()
	}

	res, err := w.runCell(ctx, spec)
	stopHB()
	hbWG.Wait()
	if ctx.Err() != nil {
		// Canceled mid-cell: report nothing; the lease expires and the
		// coordinator requeues the cell elsewhere.
		return
	}

	post := ResultPost{Key: spec.Key, Worker: w.cfg.ID}
	if err != nil {
		post.Error = err.Error()
	} else {
		post.Result = &res
	}
	if perr := w.postWithRetry(ctx, "/cells/result", post); perr != nil {
		// The lease will expire and the cell will be recomputed; losing
		// one delivery is not fatal to the worker.
		w.logf("delivering %s/%s: %v", spec.Workload, spec.Setup, perr)
		return
	}
	if w.cfg.Verbose {
		outcome := "finished"
		if err != nil {
			outcome = "failed"
		}
		w.logf("%s %s/%s in %v", outcome, spec.Workload, spec.Setup, time.Since(start).Round(time.Millisecond))
	}
}

// runCell rebuilds and executes one cell.
func (w *worker) runCell(ctx context.Context, spec CellSpec) (sim.Result, error) {
	wl, err := trace.ByName(spec.Workload)
	if err != nil {
		return sim.Result{}, err
	}
	setup, ok := exp.ResolveSetup(spec.Setup)
	if !ok {
		return sim.Result{}, fmt.Errorf("expserve: setup %q is not in this worker's catalog", spec.Setup)
	}
	return w.runner(spec.Params).RunContext(ctx, wl, setup)
}

// lease asks the coordinator for work.
func (w *worker) lease(ctx context.Context) (*LeaseReply, error) {
	var reply LeaseReply
	if err := w.post(ctx, "/cells", LeaseRequest{Worker: w.cfg.ID}, &reply); err != nil {
		return nil, err
	}
	if reply.Status == LeaseCell && reply.Cell == nil {
		return nil, errors.New("expserve: lease reply carries no cell")
	}
	return &reply, nil
}

// postWithRetry retries transient delivery failures briefly.
func (w *worker) postWithRetry(ctx context.Context, path string, body any) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = w.post(ctx, path, body, nil); err == nil || ctx.Err() != nil {
			return err
		}
		if !sleepCtx(ctx, time.Duration(attempt+1)*200*time.Millisecond) {
			return err
		}
	}
	return err
}

// post sends one JSON request and decodes the reply into out (when non-nil).
func (w *worker) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("expserve: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps d or until ctx is done; false means canceled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
