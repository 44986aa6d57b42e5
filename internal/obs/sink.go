package obs

import (
	"bufio"
	"io"
	"strconv"
)

// Sink consumes traced events. Implementations need not be concurrency
// safe: each simulation is single-threaded, and when runs execute in
// parallel every run traces into its own ForkRun child whose join flushes
// to the shared sink under the parent observer's lock.
type Sink interface {
	WriteEvent(Event) error
	// Close flushes buffered output. It does not close any underlying
	// file the caller owns.
	Close() error
}

// NullSink discards every event; it measures tracing overhead.
type NullSink struct{}

// WriteEvent implements Sink.
func (NullSink) WriteEvent(Event) error { return nil }

// Close implements Sink.
func (NullSink) Close() error { return nil }

// JSONLSink writes one JSON object per event, hand-encoded (no reflection,
// one amortized allocation-free append buffer) so full tracing stays cheap
// enough for million-access runs. Zero PC/Flag/Label fields are omitted;
// seq, kind, cycle, access, key and aux are always present.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
}

// NewJSONLSink wraps w; call Close to flush.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// WriteEvent implements Sink.
func (s *JSONLSink) WriteEvent(ev Event) error {
	b := s.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","cycle":`...)
	b = strconv.AppendUint(b, ev.Cycle, 10)
	b = append(b, `,"access":`...)
	b = strconv.AppendUint(b, ev.Access, 10)
	b = append(b, `,"key":`...)
	b = strconv.AppendUint(b, ev.Key, 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendUint(b, ev.Aux, 10)
	if ev.PC != 0 {
		b = append(b, `,"pc":`...)
		b = strconv.AppendUint(b, ev.PC, 10)
	}
	if ev.Flag {
		b = append(b, `,"flag":true`...)
	}
	if ev.Label != "" {
		b = append(b, `,"label":`...)
		b = strconv.AppendQuote(b, ev.Label)
	}
	b = append(b, "}\n"...)
	s.buf = b
	_, err := s.w.Write(b)
	return err
}

// Close implements Sink.
func (s *JSONLSink) Close() error { return s.w.Flush() }

// CSVSink writes events as comma-separated rows with a header line. The
// column order matches the JSONL field order.
type CSVSink struct {
	w      *bufio.Writer
	buf    []byte
	header bool
}

// NewCSVSink wraps w; call Close to flush.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 128)}
}

// WriteEvent implements Sink.
func (s *CSVSink) WriteEvent(ev Event) error {
	if !s.header {
		s.header = true
		if _, err := s.w.WriteString("seq,kind,cycle,access,key,aux,pc,flag,label\n"); err != nil {
			return err
		}
	}
	b := s.buf[:0]
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, ',')
	b = append(b, ev.Kind.String()...)
	b = append(b, ',')
	b = strconv.AppendUint(b, ev.Cycle, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, ev.Access, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, ev.Key, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, ev.Aux, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, ev.PC, 10)
	b = append(b, ',')
	b = strconv.AppendBool(b, ev.Flag)
	b = append(b, ',')
	b = append(b, ev.Label...) // run labels contain no commas or quotes
	b = append(b, '\n')
	s.buf = b
	_, err := s.w.Write(b)
	return err
}

// Close implements Sink.
func (s *CSVSink) Close() error { return s.w.Flush() }
