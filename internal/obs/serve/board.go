// Package serve is the live monitoring plane: a status board the grid
// runner publishes experiment-cell lifecycle into, and an HTTP server
// exposing the observability bundle while a grid runs — Prometheus-text
// metrics (including histogram distributions), a JSON grid snapshot, a
// server-sent-events stream of cell transitions, and the stdlib pprof
// handlers. Everything is stdlib-only, matching the repo's
// zero-dependency rule, and everything is passive: serving traffic never
// perturbs simulation results.
package serve

import (
	"sync"
	"time"
)

// CellState is the lifecycle state of one grid cell.
type CellState string

// Cell lifecycle: Pending (queued, not started), Running (leader holds a
// pool slot), Done, Failed (finished with an error, cancellation
// included).
const (
	Pending CellState = "pending"
	Running CellState = "running"
	Done    CellState = "done"
	Failed  CellState = "failed"
)

// CellStatus is one cell's row in the status snapshot.
type CellStatus struct {
	Workload  string    `json:"workload"`
	Setup     string    `json:"setup"`
	State     CellState `json:"state"`
	ElapsedMS int64     `json:"elapsed_ms,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// Event is one cell transition, broadcast to SSE subscribers.
type Event struct {
	Type      string `json:"type"` // queued | start | done | failed | memo_hit
	Workload  string `json:"workload,omitempty"`
	Setup     string `json:"setup,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Status is the /status document body.
type Status struct {
	UptimeMS int64 `json:"uptime_ms"`
	Pending  int   `json:"pending"`
	Running  int   `json:"running"`
	Done     int   `json:"done"`
	Failed   int   `json:"failed"`
	// MemoHits counts cells served from the runner's result memo without
	// re-simulating (aggregation replays, cross-experiment sharing and the
	// persistent memo).
	MemoHits uint64       `json:"memo_hits"`
	Cells    []CellStatus `json:"cells"`
}

// Board tracks grid-cell lifecycle for live monitoring. The runner calls
// the transition methods from pool workers; handlers snapshot concurrently.
// Transitions happen once per simulation (seconds of work), never on the
// access path, so one mutex is cheap — the simulator itself never touches
// the board.
type Board struct {
	mu       sync.Mutex
	started  time.Time
	cells    map[string]*CellStatus
	order    []string
	memoHits uint64
	subs     map[chan Event]struct{}
}

// NewBoard creates an empty board; uptime counts from now.
func NewBoard() *Board {
	return &Board{
		started: time.Now(),
		cells:   make(map[string]*CellStatus),
		subs:    make(map[chan Event]struct{}),
	}
}

// cell returns the tracked cell, creating a Pending row on first sight.
// Callers hold b.mu.
func (b *Board) cell(workload, setup string) *CellStatus {
	key := workload + "/" + setup
	c, ok := b.cells[key]
	if !ok {
		c = &CellStatus{Workload: workload, Setup: setup, State: Pending}
		b.cells[key] = c
		b.order = append(b.order, key)
	}
	return c
}

// broadcast fans ev out to subscribers without blocking: a subscriber that
// stopped draining loses events rather than stalling the runner. Callers
// hold b.mu.
func (b *Board) broadcast(ev Event) {
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// CellQueued registers a cell as pending. The grid runner announces the
// whole cross product before launching, so /status shows the full grid
// immediately.
func (b *Board) CellQueued(workload, setup string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cell(workload, setup)
	b.broadcast(Event{Type: "queued", Workload: workload, Setup: setup})
}

// CellStart marks a cell running.
func (b *Board) CellStart(workload, setup string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cell(workload, setup).State = Running
	b.broadcast(Event{Type: "start", Workload: workload, Setup: setup})
}

// CellDone marks a cell finished; a non-nil err (cancellation included)
// marks it failed and carries the message into the status row and event.
func (b *Board) CellDone(workload, setup string, elapsed time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.cell(workload, setup)
	c.ElapsedMS = elapsed.Milliseconds()
	ev := Event{Type: "done", Workload: workload, Setup: setup, ElapsedMS: c.ElapsedMS}
	if err != nil {
		c.State = Failed
		c.Error = err.Error()
		ev.Type = "failed"
		ev.Error = c.Error
	} else {
		c.State = Done
		c.Error = ""
	}
	b.broadcast(ev)
}

// MemoHit records a cell request served from the result memo. A cell
// still pending is done: served in no time, it never runs. A running,
// done or failed row belongs to the cell's leader and stays as it is.
func (b *Board) MemoHit(workload, setup string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.memoHits++
	if c := b.cell(workload, setup); c.State == Pending {
		c.State = Done
	}
	b.broadcast(Event{Type: "memo_hit", Workload: workload, Setup: setup})
}

// Subscribe returns a channel of future cell events and a cancel function
// releasing it. The channel is buffered; events overflowing the buffer are
// dropped for that subscriber.
func (b *Board) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		delete(b.subs, ch)
		b.mu.Unlock()
	}
	return ch, cancel
}

// Status snapshots the board in cell-queue order.
func (b *Board) Status() Status {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Status{
		UptimeMS: time.Since(b.started).Milliseconds(),
		MemoHits: b.memoHits,
		Cells:    make([]CellStatus, 0, len(b.order)),
	}
	for _, key := range b.order {
		c := *b.cells[key]
		st.Cells = append(st.Cells, c)
		switch c.State {
		case Pending:
			st.Pending++
		case Running:
			st.Running++
		case Done:
			st.Done++
		case Failed:
			st.Failed++
		}
	}
	return st
}
