package exp

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// flight is a keyed single-flight store. The first do for a key leads: it
// runs fn while concurrent callers wait, and every later caller shares the
// outcome. Outcomes stay memoized, errors included, except cancellation
// outcomes (isCtxErr): those describe the leader's abort, not the key, so
// they are evicted before waiters wake and the next caller recomputes. The
// zero value is ready to use.
type flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

// flightCall is one key's slot; done closes once val and err are final.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// do returns key's outcome, running fn for it if no caller has yet. shared
// reports that the outcome (or the wait for it) belongs to another caller's
// fn. A sharer whose own ctx ends first returns ctx.Err() and leaves the
// entry to the rest. A panic in fn becomes the outcome's error, so waiters
// are always released.
func (f *flight[V]) do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if c, ok := f.m[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	if f.m == nil {
		f.m = make(map[string]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.m[key] = c
	f.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			c.err = fmt.Errorf("exp: %s: panic: %v\n%s", key, p, debug.Stack())
		}
		if isCtxErr(c.err) {
			f.mu.Lock()
			delete(f.m, key)
			f.mu.Unlock()
		}
		close(c.done)
		v, err = c.val, c.err
	}()
	c.val, c.err = fn()
	return
}

// has reports whether key holds an outcome or a computation in flight.
func (f *flight[V]) has(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m[key] != nil
}

// node is a value the cells of one planned grid share (gridPlan): a
// baseline pass's Result, a warmed master or a workload's trace. edges
// counts the consumers yet to drop it. One consumer computes and publishes
// the value, the rest wait for done and read it until they drop; the last
// drop releases it.
type node struct {
	mu      sync.Mutex
	edges   int
	claimed atomic.Bool   // by the consumer that computes it
	done    chan struct{} // closed once val and err are final
	val     any
	err     error
	release func(val any) // when set, the last drop hands it a published value
}

// publish sets the outcome and wakes the waiters; only the first call
// counts.
func (n *node) publish(v any, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.done:
	default:
		n.val, n.err = v, err
		close(n.done)
	}
}

// drop drops one consumer's edge. A consumer that computes the node and
// drops it unpublished abandons it, so its waiters wake and run on their
// own; the last drop releases the value.
func (n *node) drop(computes bool) {
	if computes {
		n.publish(nil, errAbandoned)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.edges--; n.edges == 0 {
		if n.release != nil && n.val != nil {
			n.release(n.val)
		}
		n.val = nil
	}
}
