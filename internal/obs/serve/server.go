package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// Server exposes a running experiment over HTTP:
//
//	/metrics      Prometheus text exposition of the observer's registry
//	/status       JSON snapshot of the grid status board
//	/events       server-sent events stream of cell transitions
//	/healthz      liveness probe
//	/debug/pprof  stdlib profiling handlers
//
// plus whatever routes a producer mounts with HandleFunc (expserve's
// coordinator mounts its lease protocol). These handlers only read: the
// registry snapshot is mutex-guarded and histograms are atomic, so serving
// concurrently with a simulation is race-free and cannot change its
// results.
type Server struct {
	reg   *obs.Registry
	board *Board

	mux  *http.ServeMux
	hs   *http.Server
	ln   net.Listener
	done chan struct{} // closed on Shutdown; unblocks SSE handlers

	mu      sync.Mutex
	started bool
}

// NewServer builds a server over a registry (nil serves empty metrics)
// and a board (nil serves an empty status document and a silent event
// stream).
func NewServer(reg *obs.Registry, board *Board) *Server {
	mux := http.NewServeMux()
	s := &Server{reg: reg, board: board, mux: mux, done: make(chan struct{})}
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleBoard)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.hs = &http.Server{Handler: mux}
	return s
}

// Handler returns the route mux, for httptest-style in-process serving.
func (s *Server) Handler() http.Handler { return s.mux }

// HandleFunc mounts one more route on the server's mux, in
// http.ServeMux pattern syntax ("POST /cells"). Call it before serving.
func (s *Server) HandleFunc(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// Start binds addr (":0" picks a free port) and serves in a background
// goroutine, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.started = true
	s.mu.Unlock()
	go func() { _ = s.hs.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown stops the server: SSE streams are released first (they would
// otherwise hold graceful shutdown open forever), then the listener and
// idle connections drain within ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	started := s.started
	s.started = false
	s.mu.Unlock()
	if !started {
		return nil
	}
	close(s.done)
	return s.hs.Shutdown(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteProm(w, s.reg)
}

// handleBoard serves /status: the board's snapshot.
func (s *Server) handleBoard(w http.ResponseWriter, _ *http.Request) {
	var st Status
	if s.board != nil {
		st = s.board.Status()
	}
	if st.Cells == nil {
		st.Cells = []CellStatus{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// handleEvents streams board events as server-sent events until the
// client disconnects or the server shuts down. Each event is one JSON
// object on a `data:` line; a comment ping every 15s keeps intermediaries
// from timing the stream out while the grid is quiet.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the headers go out: a client may publish as soon
	// as its GET returns, and that event must already have a subscriber.
	var events <-chan Event
	if s.board != nil {
		var cancel func()
		events, cancel = s.board.Subscribe()
		defer cancel()
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	if s.board == nil {
		<-r.Context().Done()
		return
	}
	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	for {
		select {
		case ev := <-events:
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
			fl.Flush()
		case <-ping.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}
