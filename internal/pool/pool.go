// Package pool recycles the large arrays a simulation builds and drops:
// the set records, bit words and payloads of every cache and TLB of a
// machine, and the columns of a materialized trace. An experiment runner
// builds dozens of machines of a few geometries and materializes a trace
// per workload; each is dead a few seconds later, and the next one needs
// arrays of the same types and lengths. A Pool keeps the dead ones and
// hands them out again.
//
// A Pool holds free lists keyed by element type and length, behind a
// mutex. Make returns a zeroed array and Clone a copy, each taken from the
// free list when it holds one; Take returns one as it was left, for a
// caller that overwrites it; Append grows an array into a larger one; Put
// returns an array. A Pool keeps at most a fixed number of idle arrays per
// key, so its idle storage stays bounded by a few structures' worth; Put
// drops the rest to the garbage collector. Stats counts what became of
// every request and return, so a drop is never silent.
//
// A nil *Pool is valid everywhere: Make and Clone allocate as make and
// append would, and Put does nothing. Structures built without a pool
// therefore take exactly their old code path.
package pool

import "sync"

// Pool is a set of free lists of arrays. It is safe for concurrent use.
type Pool struct {
	keep int

	mu    sync.Mutex
	free  map[key]any // each a *list[T] for the key's T
	stats Stats
}

// Stats counts a pool's traffic.
type Stats struct {
	// Reused counts the requests an idle array served.
	Reused int64
	// Allocated counts the requests the pool could not serve, each of
	// which its caller met with a new array.
	Allocated int64
	// Dropped counts the arrays Put left to the garbage collector because
	// their key already held the keep bound's worth.
	Dropped int64
}

// Stats returns the pool's counts so far; a nil pool reports zeros.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// list is one free list. Its arrays are stored typed, so taking and
// putting one allocates nothing once the list has grown.
type list[T any] struct {
	idle [][]T
}

// key identifies a free list: the element type (through a nil *T, which
// compares equal only for the same T) and the array length.
type key struct {
	typ any
	n   int
}

// New returns a pool that keeps at most keep idle arrays per element type
// and length (at least 1).
func New(keep int) *Pool {
	if keep < 1 {
		keep = 1
	}
	return &Pool{keep: keep, free: make(map[key]any)}
}

// Take pops an idle []T of length n from p, as its last owner left it;
// ok is false when p holds none, and the caller is counted as allocating
// one (Stats). A caller that reads the array before writing it wants Make.
func Take[T any](p *Pool, n int) (s []T, ok bool) {
	if p == nil || n == 0 {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l, _ := p.free[key{(*T)(nil), n}].(*list[T])
	if l == nil || len(l.idle) == 0 {
		p.stats.Allocated++
		return nil, false
	}
	p.stats.Reused++
	s = l.idle[len(l.idle)-1]
	l.idle[len(l.idle)-1] = nil
	l.idle = l.idle[:len(l.idle)-1]
	return s, true
}

// Make returns a zeroed []T of length n, recycled from p when it holds
// one.
func Make[T any](p *Pool, n int) []T {
	if s, ok := Take[T](p, n); ok {
		clear(s)
		return s
	}
	return make([]T, n)
}

// Clone returns a copy of src, recycled from p when it holds an array of
// src's length; like append([]T(nil), src...), an empty src gives nil.
func Clone[T any](p *Pool, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	s, ok := Take[T](p, len(src))
	if !ok {
		s = make([]T, len(src))
	}
	copy(s, src)
	return s
}

// Append appends v to s like append, except that a full s moves into an
// array of twice its capacity (at least 1) from p, and the array it leaves
// goes back to p. A structure that grows this way holds one array per
// length, and the next structure's growth finds every length it passes
// through.
func Append[T any](p *Pool, s []T, v T) []T {
	if len(s) == cap(s) {
		n := max(2*cap(s), 1)
		g, ok := Take[T](p, n)
		if !ok {
			g = make([]T, n)
		}
		g = g[:len(s)]
		copy(g, s)
		Put(p, s)
		s = g
	}
	return append(s, v)
}

// Put returns s to p for a later Make or Clone of its length. The caller
// must not use s afterwards. p keeps s only while the free list of its
// type and length holds fewer than its keep bound.
func Put[T any](p *Pool, s []T) {
	if p == nil || cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	k := key{(*T)(nil), len(s)}
	p.mu.Lock()
	defer p.mu.Unlock()
	l, _ := p.free[k].(*list[T])
	if l == nil {
		l = &list[T]{}
		p.free[k] = l
	}
	if len(l.idle) < p.keep {
		l.idle = append(l.idle, s)
	} else {
		p.stats.Dropped++
	}
}
