package obs

// Tracer stamps structured events and streams them to its sink, when one
// is set. The first sink error is latched in Err and stops further sink
// writes, so a full disk cannot abort a simulation.
type Tracer struct {
	seq  uint64
	sink Sink
	err  error

	// clock supplies (cycle, access) stamps; the simulator installs it so
	// predictors can emit events without carrying timing context.
	clock func() (cycle, access uint64)
}

// NewTracer builds a tracer writing to sink (nil only counts events).
func NewTracer(sink Sink) *Tracer { return &Tracer{sink: sink} }

// SetClock installs the (cycle, access) stamp source.
func (t *Tracer) SetClock(fn func() (cycle, access uint64)) { t.clock = fn }

// Emit records one event: stamps Seq (and Cycle/Access from the clock when
// installed) and forwards it to the sink.
func (t *Tracer) Emit(ev Event) {
	ev.Seq = t.seq
	t.seq++
	if t.clock != nil {
		ev.Cycle, ev.Access = t.clock()
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

// Count returns the total number of events emitted.
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
