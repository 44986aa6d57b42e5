package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryCountersGaugesProbes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("llt.misses")
	c.Add(1)
	c.Add(4)
	if got := r.Counter("llt.misses").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Gauge("walker.backlog").Set(3.5)
	var probed float64 = 7
	r.RegisterProbe("core.ipc", func() float64 { return probed })

	s1 := r.Snapshot()
	if s1["llt.misses"] != 5 || s1["walker.backlog"] != 3.5 || s1["core.ipc"] != 7 {
		t.Fatalf("snapshot = %v", s1)
	}

	c.Add(10)
	probed = 9
	d := r.Snapshot().Delta(s1)
	if d["llt.misses"] != 10 || d["core.ipc"] != 2 || d["walker.backlog"] != 0 {
		t.Fatalf("delta = %v", d)
	}
}

func TestRegistrySubPrefixes(t *testing.T) {
	r := NewRegistry()
	sub := r.Sub("cactusADM/dpPred/")
	sub.Counter("llt.misses").Add(3)
	s := r.Snapshot()
	if s["cactusADM/dpPred/llt.misses"] != 3 {
		t.Fatalf("snapshot missing prefixed counter: %v", s)
	}
	// Nested Sub composes prefixes.
	sub.Sub("x/").Counter("y").Add(1)
	if r.Snapshot()["cactusADM/dpPred/x/y"] != 1 {
		t.Fatalf("nested prefix broken: %v", r.Snapshot())
	}
}

// events returns the tracer's buffered events oldest-first (at most ring
// capacity).
func events(t *Tracer) []Event {
	if !t.full {
		out := make([]Event, t.pos)
		copy(out, t.ring[:t.pos])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.pos:]...)
	out = append(out, t.ring[:t.pos]...)
	return out
}

func TestTracerRingWrapsOldestFirst(t *testing.T) {
	tr := NewTracer(4, nil)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: EvLLTFill, Key: uint64(i)})
	}
	evs := events(tr)
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(i + 2); ev.Key != want || ev.Seq != want {
			t.Fatalf("event %d = %+v, want key/seq %d", i, ev, want)
		}
	}
	if tr.Count() != 6 {
		t.Fatalf("count = %d, want 6", tr.Count())
	}
}

func TestTracerClockStamps(t *testing.T) {
	tr := NewTracer(0, nil)
	tr.SetClock(func() (uint64, uint64) { return 123, 45 })
	tr.Emit(Event{Kind: EvWalk})
	ev := events(tr)[0]
	if ev.Cycle != 123 || ev.Access != 45 {
		t.Fatalf("stamped event = %+v", ev)
	}
}

func TestJSONLSinkSchema(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(0, sink)
	tr.EmitLabeled(Event{Kind: EvRunStart}, "cc/dpPred")
	tr.Emit(Event{Kind: EvLLTEvict, Key: 0xAB, Aux: 0xCD, PC: 0x400, Flag: true})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["kind"] != "run_start" || first["label"] != "cc/dpPred" {
		t.Fatalf("run_start = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if second["kind"] != "llt_evict" || second["key"] != float64(0xAB) ||
		second["aux"] != float64(0xCD) || second["pc"] != float64(0x400) ||
		second["flag"] != true {
		t.Fatalf("llt_evict = %v", second)
	}
	if _, hasLabel := second["label"]; hasLabel {
		t.Fatalf("zero label should be omitted: %v", second)
	}
}

func TestCSVSinkHeaderAndRows(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	tr := NewTracer(0, sink)
	tr.Emit(Event{Kind: EvPFQPush, Key: 9})
	tr.Emit(Event{Kind: EvLLCBypass, Key: 10, PC: 11})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "seq,kind,cycle,access,key,aux,pc,flag,label" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,pfq_push,") || !strings.HasPrefix(lines[2], "1,llc_bypass,") {
		t.Fatalf("rows = %q", lines[1:])
	}
}

func TestIntervalRecorderAndMetricsJSON(t *testing.T) {
	o := &Observer{
		Metrics:  NewRegistry(),
		Interval: NewIntervalRecorder(1000),
	}
	o.Interval.SetRun("cc/dpPred")
	o.Metrics.Sub("cc/dpPred/").Counter("llt.misses").Add(2)
	o.Interval.Add(IntervalSample{Access: 1000, IPC: 0.5})
	o.Interval.Add(IntervalSample{Access: 2000, IPC: 0.6})
	o.Interval.SetRun("cc/baseline")
	o.Interval.Add(IntervalSample{Access: 1000, IPC: 0.4})

	samples := o.Interval.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples", len(samples))
	}
	if samples[0].Run != "cc/dpPred" || samples[0].Index != 0 || samples[1].Index != 1 {
		t.Fatalf("run labels/indices wrong: %+v", samples[:2])
	}
	if samples[2].Run != "cc/baseline" || samples[2].Index != 0 {
		t.Fatalf("SetRun did not reset index: %+v", samples[2])
	}

	var buf bytes.Buffer
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalAccesses uint64             `json:"interval_accesses"`
		Intervals        []IntervalSample   `json:"intervals"`
		Metrics          map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics doc not JSON: %v", err)
	}
	if doc.IntervalAccesses != 1000 || len(doc.Intervals) != 3 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Metrics["cc/dpPred/llt.misses"] != 2 {
		t.Fatalf("metrics = %v", doc.Metrics)
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.RunRegistry() != nil {
		t.Fatal("nil observer must have nil registry")
	}
	var buf bytes.Buffer
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTracerEmitNullSink(b *testing.B) {
	tr := NewTracer(0, NullSink{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: EvLLTFill, Key: uint64(i), Aux: 1, PC: 2})
	}
}

func BenchmarkJSONLSinkWrite(b *testing.B) {
	sink := NewJSONLSink(discard{})
	tr := NewTracer(0, sink)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: EvLLCEvict, Key: uint64(i), Aux: 1, PC: 2, Flag: true})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
