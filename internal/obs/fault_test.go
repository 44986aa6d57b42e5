package obs

import (
	"errors"
	"io"
	"testing"

	"repro/internal/faultio"
)

// metricsObserver builds an observer holding enough state that its JSON
// document exceeds a small sink capacity.
func metricsObserver() *Observer {
	o := &Observer{Metrics: NewRegistry(), Interval: NewIntervalRecorder(10)}
	o.Metrics.RegisterProbe("events", func() float64 { return 3 })
	o.Interval.SetRun("run")
	for i := 0; i < 8; i++ {
		o.Interval.Add(IntervalSample{Access: uint64(i * 10)})
	}
	return o
}

// TestWriteMetricsJSONFullDisk: a metrics sink that fills up mid-document
// (full disk at flush time) must surface the write error to the caller
// instead of reporting a successful flush over a truncated JSON file.
func TestWriteMetricsJSONFullDisk(t *testing.T) {
	err := metricsObserver().WriteMetricsJSON(faultio.NewFailingWriter(nil, 64, nil))
	if !errors.Is(err, faultio.ErrNoSpace) {
		t.Fatalf("err = %v, want wrapped faultio.ErrNoSpace", err)
	}
}

// TestWriteMetricsJSONHealthySink is the control: the same document on an
// uncapped sink must succeed.
func TestWriteMetricsJSONHealthySink(t *testing.T) {
	if err := metricsObserver().WriteMetricsJSON(faultio.NewFailingWriter(nil, 1<<20, nil)); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

// recordingSink is an openSink product that remembers whether it was
// closed.
type recordingSink struct {
	io.Writer
	closed bool
}

func (r *recordingSink) Close() error {
	if r.closed {
		return errors.New("double close")
	}
	r.closed = true
	return nil
}

// TestFromFlagsOpenFailureClosesEarlierSinks: when the metrics sink fails
// to open, the trace sink opened just before must be closed before
// FromFlags returns — a failed setup must not leak file handles.
func TestFromFlagsOpenFailureClosesEarlierSinks(t *testing.T) {
	traceSink := &recordingSink{Writer: io.Discard}
	openErr := errors.New("permission denied")
	_, _, err := fromFlags("events.jsonl", "metrics.json", 100, func(path string) (io.WriteCloser, error) {
		if path == "metrics.json" {
			return nil, openErr
		}
		return traceSink, nil
	})
	if !errors.Is(err, openErr) {
		t.Fatalf("err = %v, want wrapped %v", err, openErr)
	}
	if !traceSink.closed {
		t.Fatal("trace sink leaked: not closed after metrics open failure")
	}
}

// TestFromFlagsFinishFullDisk: a metrics sink that fills up when finish
// writes the document (faultio's full-disk writer) must surface
// ErrNoSpace from finish, and the trace sink must still be closed.
func TestFromFlagsFinishFullDisk(t *testing.T) {
	traceSink := &recordingSink{Writer: io.Discard}
	metricsSink := &recordingSink{Writer: faultio.NewFailingWriter(nil, 64, nil)}
	o, finish, err := fromFlags("events.jsonl", "metrics.json", 100, func(path string) (io.WriteCloser, error) {
		if path == "metrics.json" {
			return metricsSink, nil
		}
		return traceSink, nil
	})
	if err != nil {
		t.Fatalf("fromFlags: %v", err)
	}
	// Enough registry state that the JSON document overflows 64 bytes.
	o.Metrics.RegisterProbe("events", func() float64 { return 3 })
	o.Metrics.Histogram("hist.lat").Observe(7)
	if err := finish(); !errors.Is(err, faultio.ErrNoSpace) {
		t.Fatalf("finish err = %v, want wrapped faultio.ErrNoSpace", err)
	}
	if !traceSink.closed || !metricsSink.closed {
		t.Fatalf("sinks not closed after failed finish: trace=%v metrics=%v",
			traceSink.closed, metricsSink.closed)
	}
}

// TestFromFlagsHealthy is the control: both sinks open and finish cleanly,
// and closing happens exactly once (recordingSink errors on double close).
func TestFromFlagsHealthy(t *testing.T) {
	sinks := map[string]*recordingSink{}
	o, finish, err := fromFlags("events.jsonl", "metrics.json", 100, func(path string) (io.WriteCloser, error) {
		s := &recordingSink{Writer: io.Discard}
		sinks[path] = s
		return s, nil
	})
	if err != nil {
		t.Fatalf("fromFlags: %v", err)
	}
	if o == nil || o.Tracer == nil || o.Metrics == nil || o.Interval == nil {
		t.Fatalf("observer incomplete: %+v", o)
	}
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	for path, s := range sinks {
		if !s.closed {
			t.Fatalf("%s not closed", path)
		}
	}
}
