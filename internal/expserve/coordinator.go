package expserve

import (
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
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Coordinator schedules cells across HTTP workers. It plugs into
// exp.Runner as a CellExecutor: Execute enqueues a cell and blocks until a
// worker delivers it; the runner, not the coordinator, persists results.
// Leases expire when a worker stops heartbeating — kill -9, network
// partition, wedged machine — and the cell is requeued with bounded
// retries and backoff. Because every cell is deterministic, a late
// result from an expired lease is accepted as-is; the requeued duplicate
// becomes a no-op.
//
// The coordinator owns no listener: Mount adds its lease protocol to an
// obs/serve.Server, beside that server's /metrics, /status and /healthz.
//
//	POST /cells           lease one cell        (LeaseRequest → LeaseReply)
//	POST /cells/result    deliver a result      (ResultPost)
//	POST /cells/heartbeat extend a lease        (HeartbeatRequest → HeartbeatReply)
type Coordinator struct {
	params exp.Params

	// LeaseTTL is how long a lease survives without a heartbeat before
	// the cell is requeued. Workers beat at TTL/3.
	LeaseTTL time.Duration
	// ScanEvery is the requeue scanner's cadence.
	ScanEvery time.Duration
	// MaxAttempts bounds deliveries of one cell before it fails for good.
	MaxAttempts int
	// RetryBackoff is the base delay before a requeued cell may be leased
	// again, doubled per attempt and capped at 16×.
	RetryBackoff time.Duration
	// PollInterval is the wait hint handed to idle workers.
	PollInterval time.Duration
	// Log receives scheduling events (requeues, failures); nil means
	// os.Stderr.
	Log io.Writer

	mu       sync.Mutex
	cells    map[string]*cell
	requeues int
	closed   bool

	scanStop chan struct{}
	scanDone chan struct{}
}

// Cell lifecycle states.
const (
	stateQueued = iota
	stateLeased
	stateDone
	stateFailed
)

type cell struct {
	spec      CellSpec
	state     int
	attempts  int
	notBefore time.Time // earliest next lease (retry backoff)
	deadline  time.Time // lease expiry, pushed by heartbeats
	worker    string
	res       sim.Result
	errmsg    string
	done      chan struct{} // closed when state reaches done or failed
}

// Counts is a snapshot of the coordinator's cell table: cells delivered
// (Computed), failed for good, queued and leased, plus the lease expiries
// that requeued a cell.
type Counts struct {
	Computed, Failed, Queued, Leased, Requeues int
}

// NewCoordinator builds a coordinator for one set of run parameters
// (every cell of a sweep shares them).
func NewCoordinator(params exp.Params) *Coordinator {
	return &Coordinator{
		params:       params,
		LeaseTTL:     5 * time.Second,
		ScanEvery:    500 * time.Millisecond,
		MaxAttempts:  4,
		RetryBackoff: 250 * time.Millisecond,
		PollInterval: 250 * time.Millisecond,
		cells:        make(map[string]*cell),
		scanStop:     make(chan struct{}),
		scanDone:     make(chan struct{}),
	}
}

// Mount adds the lease protocol's routes to srv and publishes Counts on
// reg as expserve.computed, .failed, .queued, .leased and .requeues.
func (c *Coordinator) Mount(srv *serve.Server, reg *obs.Registry) {
	srv.HandleFunc("POST /cells", c.handleLease)
	srv.HandleFunc("POST /cells/result", c.handleResult)
	srv.HandleFunc("POST /cells/heartbeat", c.handleHeartbeat)
	reg.RegisterProbe("expserve.computed", func() float64 { return float64(c.Counts().Computed) })
	reg.RegisterProbe("expserve.failed", func() float64 { return float64(c.Counts().Failed) })
	reg.RegisterProbe("expserve.queued", func() float64 { return float64(c.Counts().Queued) })
	reg.RegisterProbe("expserve.leased", func() float64 { return float64(c.Counts().Leased) })
	reg.RegisterProbe("expserve.requeues", func() float64 { return float64(c.Counts().Requeues) })
}

func (c *Coordinator) logf(format string, args ...any) {
	w := c.Log
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "expserve: "+format+"\n", args...)
}

// Start runs the requeue scanner in the background until Stop.
func (c *Coordinator) Start() { go c.scan() }

// Stop ends the requeue scanner Start started.
func (c *Coordinator) Stop() {
	close(c.scanStop)
	<-c.scanDone
}

// Finish marks the sweep complete: subsequent lease requests answer
// LeaseDone so workers drain and exit. Call once every Execute returned.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Counts snapshots the cell table.
func (c *Coordinator) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := Counts{Requeues: c.requeues}
	for _, cl := range c.cells {
		switch cl.state {
		case stateQueued:
			n.Queued++
		case stateLeased:
			n.Leased++
		case stateDone:
			n.Computed++
		case stateFailed:
			n.Failed++
		}
	}
	return n
}

// Execute is the exp.CellExecutor: it schedules a cell and waits for a
// worker's result. exp.Runner offers only cells a worker can rebuild by
// name, and single-flights per cell, so at most one Execute waits on a key
// at a time. An Execute canceled before the cell finishes withdraws it: no
// worker leases it again, and a late result for it is dropped as unknown.
func (c *Coordinator) Execute(ctx context.Context, key string, w trace.Workload, setup exp.Setup) (sim.Result, error) {
	c.mu.Lock()
	cl, exists := c.cells[key]
	if !exists {
		cl = &cell{
			spec: CellSpec{Key: key, Workload: w.Name, Setup: setup.Name, Params: c.params},
			done: make(chan struct{}),
		}
		c.cells[key] = cl
	}
	c.mu.Unlock()

	select {
	case <-cl.done:
	case <-ctx.Done():
		c.mu.Lock()
		if cl.state == stateQueued || cl.state == stateLeased {
			delete(c.cells, key)
		}
		c.mu.Unlock()
		return sim.Result{}, ctx.Err()
	}
	c.mu.Lock()
	res, errmsg := cl.res, cl.errmsg
	c.mu.Unlock()
	if errmsg != "" {
		return sim.Result{}, errors.New(errmsg)
	}
	return res, nil
}

// scan requeues cells whose lease expired without a heartbeat.
func (c *Coordinator) scan() {
	defer close(c.scanDone)
	t := time.NewTicker(c.ScanEvery)
	defer t.Stop()
	for {
		select {
		case <-c.scanStop:
			return
		case now := <-t.C:
			c.expireLeases(now)
		}
	}
}

func (c *Coordinator) expireLeases(now time.Time) {
	type event struct {
		spec     CellSpec
		worker   string
		attempts int
		failed   bool
	}
	var events []event
	c.mu.Lock()
	for _, cl := range c.cells {
		if cl.state != stateLeased || now.Before(cl.deadline) {
			continue
		}
		ev := event{spec: cl.spec, worker: cl.worker, attempts: cl.attempts}
		if cl.attempts >= c.MaxAttempts {
			cl.state = stateFailed
			cl.errmsg = fmt.Sprintf("expserve: cell lost with worker %s after %d attempts", cl.worker, cl.attempts)
			ev.failed = true
			close(cl.done)
		} else {
			cl.state = stateQueued
			cl.worker = ""
			// Exponential backoff, capped: a worker pool in trouble gets
			// breathing room without stalling the sweep for long.
			backoff := c.RetryBackoff << uint(min(cl.attempts, 4))
			cl.notBefore = now.Add(backoff)
			c.requeues++
		}
		events = append(events, ev)
	}
	c.mu.Unlock()
	for _, ev := range events {
		if ev.failed {
			c.logf("cell %s/%s failed: worker %s lost, attempt limit %d reached",
				ev.spec.Workload, ev.spec.Setup, ev.worker, ev.attempts)
		} else {
			c.logf("requeued %s/%s (worker %s lost, attempt %d/%d)",
				ev.spec.Workload, ev.spec.Setup, ev.worker, ev.attempts, c.MaxAttempts)
		}
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	c.mu.Lock()
	var pick *cell
	open := false // any cell that could still produce work
	for _, cl := range c.cells {
		switch cl.state {
		case stateQueued:
			open = true
			if now.Before(cl.notBefore) {
				continue
			}
			// Deterministic-ish pick is unnecessary (cells are
			// order-independent); take any runnable cell, preferring the
			// least-attempted so retries don't starve fresh work.
			if pick == nil || cl.attempts < pick.attempts {
				pick = cl
			}
		case stateLeased:
			open = true
		}
	}
	if pick != nil {
		pick.state = stateLeased
		pick.attempts++
		pick.worker = req.Worker
		pick.deadline = now.Add(c.LeaseTTL)
	}
	closed := c.closed
	c.mu.Unlock()

	reply := LeaseReply{Status: LeaseWait, RetryMillis: c.PollInterval.Milliseconds()}
	switch {
	case pick != nil:
		spec := pick.spec
		reply = LeaseReply{Status: LeaseCell, Cell: &spec, TTLMillis: c.LeaseTTL.Milliseconds()}
	case closed && !open:
		reply = LeaseReply{Status: LeaseDone}
	}
	writeJSON(w, reply)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var post ResultPost
	if err := json.NewDecoder(r.Body).Decode(&post); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	cl, ok := c.cells[post.Key]
	if !ok || cl.state == stateDone || cl.state == stateFailed {
		// Unknown key (a withdrawn cell, or one a restarted coordinator
		// never scheduled) or a duplicate delivery from a requeued race:
		// acknowledge and drop — the first result won.
		c.mu.Unlock()
		writeJSON(w, struct{}{})
		return
	}
	spec := cl.spec
	if post.Error != "" {
		// Execution errors are deterministic properties of the cell, not
		// of the worker; retrying elsewhere would fail the same way.
		cl.state = stateFailed
		cl.errmsg = post.Error
		cl.worker = post.Worker
		close(cl.done)
		c.mu.Unlock()
		c.logf("cell %s/%s failed on %s: %s", spec.Workload, spec.Setup, post.Worker, post.Error)
		writeJSON(w, struct{}{})
		return
	}
	if post.Result == nil {
		c.mu.Unlock()
		http.Error(w, "result post carries neither result nor error", http.StatusBadRequest)
		return
	}
	cl.state = stateDone
	cl.res = *post.Result
	cl.worker = post.Worker
	close(cl.done)
	c.mu.Unlock()
	writeJSON(w, struct{}{})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	cl, ok := c.cells[hb.Key]
	active := ok && cl.state == stateLeased && cl.worker == hb.Worker
	if active {
		cl.deadline = time.Now().Add(c.LeaseTTL)
	}
	c.mu.Unlock()
	writeJSON(w, HeartbeatReply{Active: active})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
