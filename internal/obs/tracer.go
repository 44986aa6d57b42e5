package obs

// DefaultRingSize is the tracer's in-memory event capacity when 0 is
// requested.
const DefaultRingSize = 4096

// Tracer stamps, buffers and forwards structured events. It keeps the
// last ringSize events in a fixed ring (for post-mortem inspection
// without any sink) and streams every event to the sink when one is set.
// The first sink error is latched in Err and stops further sink writes,
// so a full disk cannot abort a simulation.
type Tracer struct {
	ring []Event
	pos  int
	seq  uint64
	full bool

	sink Sink
	err  error

	// clock supplies (cycle, access) stamps; the simulator installs it so
	// predictors can emit events without carrying timing context.
	clock func() (cycle, access uint64)
}

// NewTracer builds a tracer with the given ring capacity (0 selects
// DefaultRingSize) writing to sink (nil keeps the ring only).
func NewTracer(ringSize int, sink Sink) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{ring: make([]Event, ringSize), sink: sink}
}

// SetClock installs the (cycle, access) stamp source.
func (t *Tracer) SetClock(fn func() (cycle, access uint64)) { t.clock = fn }

// Emit records one event: stamps Seq (and Cycle/Access from the clock when
// installed), appends to the ring, and forwards to the sink.
func (t *Tracer) Emit(ev Event) {
	ev.Seq = t.seq
	t.seq++
	if t.clock != nil {
		ev.Cycle, ev.Access = t.clock()
	}
	t.ring[t.pos] = ev
	t.pos++
	if t.pos == len(t.ring) {
		t.pos = 0
		t.full = true
	}
	if t.sink != nil && t.err == nil {
		if err := t.sink.WriteEvent(ev); err != nil {
			t.err = err
		}
	}
}

// EmitLabeled is Emit with a run label attached (run_start events).
func (t *Tracer) EmitLabeled(ev Event, label string) {
	ev.Label = label
	t.Emit(ev)
}

// Count returns the total number of events emitted (not capped by the
// ring).
func (t *Tracer) Count() uint64 { return t.seq }

// Err returns the first sink error, if any.
func (t *Tracer) Err() error { return t.err }

// Close flushes the sink and returns the first error seen.
func (t *Tracer) Close() error {
	if t.sink == nil {
		return t.err
	}
	if err := t.sink.Close(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}
