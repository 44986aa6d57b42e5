// Package expserve promotes exp.Runner from an in-process pool to a
// sharded, resumable experiment service (DESIGN.md §17): a durable,
// content-addressed cell memo on disk (DiskMemo, keyed by exp.CellKey),
// which the runner reads and fills; a coordinator that hands cells to
// workers over HTTP with lease, heartbeat and requeue semantics, its routes
// mounted on the obs/serve monitoring server; and a worker that pulls
// cells, reconstructs them through the setup catalog (exp.ResolveSetup)
// and the workload table (trace.ByName), executes them through the
// existing Runner single-cell path, and posts results back. Everything is
// stdlib net/http. Cells are deterministic, so a cell computed twice (a
// requeue racing a slow worker) yields the same bytes and the first result
// wins.
package expserve

import (
	"repro/internal/exp"
	"repro/internal/sim"
)

// CellSpec is the unit of distributed work: everything a worker needs to
// rebuild and run one cell. Key is the cell's content address; Workload
// and Setup are catalog names; Params are the runner parameters.
type CellSpec struct {
	Key      string     `json:"key"`
	Workload string     `json:"workload"`
	Setup    string     `json:"setup"`
	Params   exp.Params `json:"params"`
}

// Lease states returned by POST /cells.
const (
	LeaseCell = "cell" // a cell is attached; run it
	LeaseWait = "wait" // nothing runnable now; poll again after RetryMillis
	LeaseDone = "done" // the sweep is over; exit
)

// LeaseRequest is a worker asking for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseReply answers a lease request. TTLMillis is how long the lease
// stays alive without a heartbeat; workers beat at a fraction of it.
type LeaseReply struct {
	Status      string    `json:"status"`
	Cell        *CellSpec `json:"cell,omitempty"`
	TTLMillis   int64     `json:"ttl_ms,omitempty"`
	RetryMillis int64     `json:"retry_ms,omitempty"`
}

// HeartbeatRequest keeps a leased cell alive while it computes.
type HeartbeatRequest struct {
	Key    string `json:"key"`
	Worker string `json:"worker"`
}

// HeartbeatReply tells the worker whether the lease is still its own;
// a worker whose lease was requeued may keep running (its late result is
// still accepted — cells are deterministic) or abandon, its choice.
type HeartbeatReply struct {
	Active bool `json:"active"`
}

// ResultPost delivers a finished cell. Exactly one of Result or Error is
// meaningful: a non-empty Error marks the cell failed (execution errors
// are deterministic, so the coordinator does not retry them).
type ResultPost struct {
	Key    string      `json:"key"`
	Worker string      `json:"worker"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}
