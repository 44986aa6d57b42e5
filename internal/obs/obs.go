// Package obs is the simulator's observability layer: a zero-dependency
// bundle of (1) a metrics registry of named probes and histograms with
// snapshot semantics, (2) a structured event tracer with pluggable sinks
// (JSONL, CSV, null) capturing the paper's
// Figure 6/8 hook-point events (LLT fill/bypass/evict, shadow hits, pHIST
// column flushes, PFQ pushes, LLC bypasses), (3) an interval recorder that
// collects per-N-access time series (IPC, MPKI, bypass rates, walker-queue
// pressure, pHIST/bHIST counter histograms) for learning-curve plots, and
// (4) runtime/pprof profiling helpers for the commands.
//
// Everything is opt-in and nil-safe: a nil *Observer (or nil component
// field) disables that layer, and the simulator guards every hook with a
// single pointer check so the disabled configuration stays off the hot
// path.
package obs

import "sync"

// Observer bundles the observability components a simulation publishes
// into. Any field may be nil; the zero value observes nothing.
//
// An Observer attached directly to a System is single-threaded, like the
// simulator. To observe simulations running in parallel, give each run its
// own view via ForkRun: children buffer privately and publish into the
// parent atomically, so traces and interval series from concurrent runs
// never interleave.
type Observer struct {
	// Tracer receives structured hook-point events.
	Tracer *Tracer
	// Metrics is the registry run counters are published into.
	Metrics *Registry
	// Interval collects per-N-access time-series samples.
	Interval *IntervalRecorder

	// mu serializes ForkRun joins (cross-run flushes into Tracer/Interval).
	mu sync.Mutex
}

// RunRegistry returns the registry the run registers its metrics into, nil
// when metrics are disabled.
func (o *Observer) RunRegistry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// ForkRun returns an isolated child observer for one simulation run plus
// a join function. The child gets its own tracer (buffering every event in
// memory, starting with the run_start event), its own interval recorder
// labeled "workload/setup", and a registry view scoped under
// "workload/setup/" (registry views share one mutex-guarded store, so
// concurrent registration is safe). The join flushes the child's buffered
// events and samples into the parent atomically: events re-acquire
// globally monotone sequence numbers and land in the parent's sink
// contiguously per run.
//
// ForkRun on a nil observer returns (nil, no-op), so callers can fork
// unconditionally. Each child must observe exactly one single-threaded
// run; join must be called exactly once, after the run finishes. When runs
// execute sequentially and join in run order, the flushed trace is
// identical to what one shared observer would have streamed.
func (o *Observer) ForkRun(workload, setup string) (*Observer, func()) {
	if o == nil {
		return nil, func() {}
	}
	label := workload + "/" + setup
	child := &Observer{}
	var events *captureSink
	if o.Tracer != nil {
		events = &captureSink{}
		child.Tracer = NewTracer(events)
		child.Tracer.EmitLabeled(Event{Kind: EvRunStart}, label)
	}
	if o.Interval != nil {
		child.Interval = NewIntervalRecorder(o.Interval.Every)
		child.Interval.SetRun(label)
	}
	if o.Metrics != nil {
		child.Metrics = o.Metrics.Sub(label + "/")
	}
	join := func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		if events != nil {
			// Child events carry their own (cycle, access) stamps; a clock
			// left on the parent from a direct attachment must not restamp
			// them.
			saved := o.Tracer.clock
			o.Tracer.clock = nil
			for _, ev := range events.events {
				o.Tracer.Emit(ev)
			}
			o.Tracer.clock = saved
		}
		if child.Interval != nil {
			o.Interval.samples = append(o.Interval.samples, child.Interval.samples...)
		}
	}
	return child, join
}

// captureSink buffers events in memory for a ForkRun child until its join
// republishes them through the parent tracer.
type captureSink struct {
	events []Event
}

// WriteEvent implements Sink.
func (c *captureSink) WriteEvent(ev Event) error {
	c.events = append(c.events, ev)
	return nil
}

// Close implements Sink.
func (c *captureSink) Close() error { return nil }

// TraceAttacher is implemented by predictors that can emit their internal
// events (pHIST column flushes, PFQ pushes) through a tracer.
type TraceAttacher interface {
	AttachTracer(*Tracer)
}

// MetricSource is implemented by predictors that publish their own
// counters into a registry.
type MetricSource interface {
	RegisterMetrics(*Registry)
}

// CounterHistogrammer is implemented by predictors whose prediction-table
// counter distribution is worth sampling per interval (dpPred's pHIST,
// cbPred's bHIST). The returned slice tallies counters by value, index 0
// first.
type CounterHistogrammer interface {
	CounterHistogram() []uint64
}

// QualitySource is implemented by predictors that report their own live
// prediction-quality signal: how many dead predictions they have issued
// and how many of those their own machinery has already detected as
// premature (dpPred's shadow table detects one every time a bypassed
// translation is re-requested, §V-A). Detection is a lower bound on the
// true premature count — the mirror-based confusion tracker supplies the
// ground truth — but it is the only quality signal real hardware has.
type QualitySource interface {
	PredictionQuality() (predictions, detectedPremature uint64)
}
