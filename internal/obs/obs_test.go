package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryProbes(t *testing.T) {
	r := NewRegistry()
	var probed float64 = 7
	r.RegisterProbe("core.ipc", func() float64 { return probed })
	r.RegisterProbe("llt.misses", func() float64 { return 5 })
	if s := r.Snapshot(); s["core.ipc"] != 7 || s["llt.misses"] != 5 || len(s) != 2 {
		t.Fatalf("snapshot = %v", s)
	}
	// Probes are evaluated at each snapshot; the last registration wins.
	probed = 9
	r.RegisterProbe("llt.misses", func() float64 { return 6 })
	if s := r.Snapshot(); s["core.ipc"] != 9 || s["llt.misses"] != 6 {
		t.Fatalf("snapshot = %v", s)
	}
}

func TestRegistrySubPrefixes(t *testing.T) {
	r := NewRegistry()
	sub := r.Sub("cactusADM/dpPred/")
	sub.RegisterProbe("llt.misses", func() float64 { return 3 })
	s := r.Snapshot()
	if s["cactusADM/dpPred/llt.misses"] != 3 {
		t.Fatalf("snapshot missing prefixed probe: %v", s)
	}
	// Nested Sub composes prefixes.
	sub.Sub("x/").RegisterProbe("y", func() float64 { return 1 })
	if r.Snapshot()["cactusADM/dpPred/x/y"] != 1 {
		t.Fatalf("nested prefix broken: %v", r.Snapshot())
	}
}

func TestTracerClockStamps(t *testing.T) {
	sink := &captureSink{}
	tr := NewTracer(sink)
	tr.SetClock(func() (uint64, uint64) { return 123, 45 })
	tr.Emit(Event{Kind: EvLLTFill})
	tr.Emit(Event{Kind: EvWalk})
	if ev := sink.events[1]; ev.Seq != 1 || ev.Cycle != 123 || ev.Access != 45 {
		t.Fatalf("stamped event = %+v", ev)
	}
	if tr.Count() != 2 {
		t.Fatalf("count = %d, want 2", tr.Count())
	}
}

func TestJSONLSinkSchema(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
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
	tr := NewTracer(sink)
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
	o.Metrics.Sub("cc/dpPred/").RegisterProbe("llt.misses", func() float64 { return 2 })
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
	tr := NewTracer(NullSink{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: EvLLTFill, Key: uint64(i), Aux: 1, PC: 2})
	}
}

func BenchmarkJSONLSinkWrite(b *testing.B) {
	sink := NewJSONLSink(discard{})
	tr := NewTracer(sink)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: EvLLCEvict, Key: uint64(i), Aux: 1, PC: 2, Flag: true})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
