package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v uint64
}

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a metric that can move in both directions.
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// registryState is the shared backing store of a Registry and all its
// Sub views.
type registryState struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	probes   map[string]func() float64
	hists    map[string]*Histogram
}

// Registry is a namespace of named metrics. Components register counters,
// gauges, or probe functions (closures reading an existing counter, so the
// owner keeps its state layout); Snapshot evaluates everything into a flat
// name → value map. Sub returns a prefixed view sharing the same store, so
// per-run scopes ("cactusADM/dpPred/llt.misses") coexist in one registry.
type Registry struct {
	state  *registryState
	prefix string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{state: &registryState{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		probes:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}}
}

// Sub returns a view of the registry that prepends prefix to every name.
func (r *Registry) Sub(prefix string) *Registry {
	return &Registry{state: r.state, prefix: r.prefix + prefix}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	name = r.prefix + name
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	c, ok := r.state.counters[name]
	if !ok {
		c = &Counter{}
		r.state.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	name = r.prefix + name
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	g, ok := r.state.gauges[name]
	if !ok {
		g = &Gauge{}
		r.state.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Histograms live in the shared store like every other metric, so a
// ForkRun child registering under its run-scoped view and a server
// snapshotting the parent see the same instance; Observe is atomic, so the
// sharing is race-free.
func (r *Registry) Histogram(name string) *Histogram {
	name = r.prefix + name
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	h, ok := r.state.hists[name]
	if !ok {
		h = &Histogram{}
		r.state.hists[name] = h
	}
	return h
}

// Histograms snapshots every histogram into a flat name → snapshot map.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	r.state.mu.Lock()
	hists := make(map[string]*Histogram, len(r.state.hists))
	for n, h := range r.state.hists {
		hists[n] = h
	}
	r.state.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(hists))
	for n, h := range hists {
		out[n] = h.Snapshot()
	}
	return out
}

// RegisterProbe installs a function evaluated at snapshot time. The last
// registration for a name wins; fn must be cheap and side-effect free.
func (r *Registry) RegisterProbe(name string, fn func() float64) {
	name = r.prefix + name
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	r.state.probes[name] = fn
}

// Snapshot is a point-in-time flat view of every metric.
type Snapshot map[string]float64

// Snapshot evaluates all counters, gauges and probes. Histograms
// contribute three scalar views each — "name.count", "name.sum" and
// "name.mean" — so flat consumers (the -metrics-out JSON, Format) see
// them without understanding buckets; Histograms() returns the full
// distributions.
func (r *Registry) Snapshot() Snapshot {
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	s := make(Snapshot, len(r.state.counters)+len(r.state.gauges)+len(r.state.probes)+3*len(r.state.hists))
	for n, c := range r.state.counters {
		s[n] = float64(c.v)
	}
	for n, g := range r.state.gauges {
		s[n] = g.v
	}
	for n, fn := range r.state.probes {
		s[n] = fn()
	}
	for n, h := range r.state.hists {
		hs := h.Snapshot()
		s[n+".count"] = float64(hs.Count)
		s[n+".sum"] = float64(hs.Sum)
		s[n+".mean"] = hs.Mean()
	}
	return s
}

// Delta returns s minus prev, per name; names absent from prev count from
// zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := make(Snapshot, len(s))
	for n, v := range s {
		d[n] = v - prev[n]
	}
	return d
}

// Names returns the snapshot's metric names, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Format renders the snapshot as aligned "name value" lines, sorted.
func (s Snapshot) Format() string {
	var out string
	for _, n := range s.Names() {
		out += fmt.Sprintf("%-48s %v\n", n, s[n])
	}
	return out
}
