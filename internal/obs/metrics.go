package obs

import "sync"

// registryState is the shared backing store of a Registry and all its
// Sub views.
type registryState struct {
	mu     sync.Mutex
	probes map[string]func() float64
	hists  map[string]*Histogram
}

// Registry is a namespace of named metrics. Components register probe
// functions (closures reading an existing counter, so the owner keeps its
// state layout) and histograms; Snapshot evaluates everything into a flat
// name → value map. Sub returns a prefixed view sharing the same store, so
// per-run scopes ("cactusADM/dpPred/llt.misses") coexist in one registry.
type Registry struct {
	state  *registryState
	prefix string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{state: &registryState{
		probes: make(map[string]func() float64),
		hists:  make(map[string]*Histogram),
	}}
}

// Sub returns a view of the registry that prepends prefix to every name.
func (r *Registry) Sub(prefix string) *Registry {
	return &Registry{state: r.state, prefix: r.prefix + prefix}
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

// Snapshot evaluates every probe. Histograms contribute three scalar views
// each — "name.count", "name.sum" and "name.mean" — so flat consumers (the
// -metrics-out JSON) see them without understanding buckets; Histograms()
// returns the full distributions.
func (r *Registry) Snapshot() Snapshot {
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	s := make(Snapshot, len(r.state.probes)+3*len(r.state.hists))
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
