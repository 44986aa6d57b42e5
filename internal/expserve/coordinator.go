package expserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Coordinator schedules cells across HTTP workers and backs them with a
// durable DiskMemo. It plugs into exp.Runner as a CellExecutor: Execute
// first consults the memo (a hit never leaves the process), then enqueues
// the cell and blocks until a worker delivers it. Leases expire when a
// worker stops heartbeating — kill -9, network partition, wedged machine —
// and the cell is requeued with bounded retries and backoff. Because every
// cell is deterministic, a late result from an expired lease is accepted
// as-is; the requeued duplicate becomes a no-op.
//
// Endpoints, in the style of internal/obs/serve:
//
//	POST /cells           lease one cell        (LeaseRequest → LeaseReply)
//	POST /cells/result    deliver a result      (ResultPost)
//	POST /cells/heartbeat extend a lease        (HeartbeatRequest → HeartbeatReply)
//	GET  /cells           list cells            ([]CellStatus)
//	GET  /status          counters              (StatusDoc)
//	GET  /healthz         liveness
type Coordinator struct {
	memo   *DiskMemo
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
	memoHits int
	requeues int
	closed   bool

	hs      *http.Server
	ln      net.Listener
	started bool

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

var stateNames = [...]string{"queued", "leased", "done", "failed"}

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

// NewCoordinator builds a coordinator over an opened memo for one set of
// run parameters (every cell of a sweep shares them).
func NewCoordinator(memo *DiskMemo, params exp.Params) *Coordinator {
	c := &Coordinator{
		memo:         memo,
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
	mux := http.NewServeMux()
	mux.HandleFunc("/cells", c.handleCells)
	mux.HandleFunc("/cells/result", c.handleResult)
	mux.HandleFunc("/cells/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/status", c.handleStatus)
	mux.HandleFunc("/healthz", c.handleHealthz)
	c.hs = &http.Server{Handler: mux}
	return c
}

// Handler returns the route mux, for httptest-style in-process serving.
func (c *Coordinator) Handler() http.Handler { return c.hs.Handler }

func (c *Coordinator) logf(format string, args ...any) {
	w := c.Log
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "expserve: "+format+"\n", args...)
}

// Start binds addr (":0" picks a free port), serves in the background and
// starts the requeue scanner, returning the bound address.
func (c *Coordinator) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("expserve: %w", err)
	}
	c.mu.Lock()
	c.ln = ln
	c.started = true
	c.mu.Unlock()
	go func() { _ = c.hs.Serve(ln) }()
	go c.scan()
	return ln.Addr().String(), nil
}

// Finish marks the sweep complete: subsequent lease requests answer
// LeaseDone so workers drain and exit. Call once every Execute returned.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Shutdown stops the scanner and the HTTP server.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	started := c.started
	c.started = false
	c.mu.Unlock()
	if !started {
		return nil
	}
	close(c.scanStop)
	<-c.scanDone
	return c.hs.Shutdown(ctx)
}

// Status snapshots the counters GET /status serves.
func (c *Coordinator) Status() StatusDoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	doc := StatusDoc{MemoHits: c.memoHits, Requeues: c.requeues, Done: c.closed}
	for _, cl := range c.cells {
		switch cl.state {
		case stateQueued:
			doc.Queued++
		case stateLeased:
			doc.Leased++
		case stateDone:
			doc.Computed++
		case stateFailed:
			doc.Failed++
		}
	}
	doc.Cells = c.memoHits + doc.Queued + doc.Leased + doc.Computed + doc.Failed
	return doc
}

// Execute is the exp.CellExecutor: it serves a cell from the memo or
// schedules it. exp.Runner offers only cells a worker can rebuild by name,
// and single-flights per cell, so one sweep enqueues each key at most once;
// re-submissions after a coordinator restart hit the memo instead.
func (c *Coordinator) Execute(ctx context.Context, key string, w trace.Workload, setup exp.Setup) (sim.Result, error) {
	if res, ok, err := c.memo.Get(key); err == nil && ok {
		c.mu.Lock()
		c.memoHits++
		c.mu.Unlock()
		return res, nil
	}

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

// handleCells serves POST (lease) and GET (listing).
func (c *Coordinator) handleCells(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		c.handleList(w)
	case http.MethodPost:
		c.handleLease(w, r)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
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
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var post ResultPost
	if err := json.NewDecoder(r.Body).Decode(&post); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	cl, ok := c.cells[post.Key]
	if !ok || cl.state == stateDone || cl.state == stateFailed {
		// Unknown key (a restarted coordinator that already memo-hit it)
		// or a duplicate delivery from a requeued race: acknowledge and
		// drop — the first result won.
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
	c.mu.Unlock()

	// Persist before waking the waiter: if the Put fails the sweep still
	// completes from memory, it just won't resume for free.
	meta := exp.CellMeta{Workload: spec.Workload, Setup: spec.Setup, Params: spec.Params}
	if err := c.memo.Put(post.Key, meta, *post.Result); err != nil {
		c.logf("memo put %s/%s: %v", spec.Workload, spec.Setup, err)
	}
	close(cl.done)
	writeJSON(w, struct{}{})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
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

func (c *Coordinator) handleList(w http.ResponseWriter) {
	c.mu.Lock()
	list := make([]CellStatus, 0, len(c.cells))
	for _, cl := range c.cells {
		list = append(list, CellStatus{
			Key:      cl.spec.Key,
			Workload: cl.spec.Workload,
			Setup:    cl.spec.Setup,
			State:    stateNames[cl.state],
			Attempts: cl.attempts,
			Worker:   cl.worker,
			Error:    cl.errmsg,
		})
	}
	c.mu.Unlock()
	sort.Slice(list, func(i, j int) bool {
		if list[i].Workload != list[j].Workload {
			return list[i].Workload < list[j].Workload
		}
		return list[i].Setup < list[j].Setup
	})
	writeJSON(w, list)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Status())
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
