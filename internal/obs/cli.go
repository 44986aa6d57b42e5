package obs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// FromFlags builds the Observer behind the commands' shared observability
// flags. tracePath ("" disables tracing) selects the sink by extension —
// ".csv" writes CSV, anything else JSONL. metricsPath ("" disables)
// enables the metrics registry and interval recorder, sampling every
// interval accesses. When both paths are empty the observer is nil
// (fully disabled).
//
// Both sinks are opened eagerly, so a bad path fails here rather than
// after a multi-minute grid; if a later sink fails to open, the ones
// already opened are closed before returning, so a failed FromFlags never
// leaks file handles.
//
// The returned finish function flushes and closes the trace file and
// writes the metrics document; call it once after the last run.
func FromFlags(tracePath, metricsPath string, interval uint64) (*Observer, func() error, error) {
	return fromFlags(tracePath, metricsPath, interval, func(path string) (io.WriteCloser, error) {
		return os.Create(path)
	})
}

// fromFlags is FromFlags with the sink opener injectable, so tests drive
// the open-failure and write-failure paths with faultio instead of real
// files.
func fromFlags(tracePath, metricsPath string, interval uint64, openSink func(string) (io.WriteCloser, error)) (*Observer, func() error, error) {
	if tracePath == "" && metricsPath == "" {
		return nil, func() error { return nil }, nil
	}
	o := &Observer{}
	var opened []io.Closer
	// closeOpened releases sinks in reverse open order, keeping every
	// error; used on both the failed-open path and by finish.
	closeOpened := func() error {
		var errs []error
		for i := len(opened) - 1; i >= 0; i-- {
			errs = append(errs, opened[i].Close())
		}
		return errors.Join(errs...)
	}
	open := func(path, kind string) (io.WriteCloser, error) {
		f, err := openSink(path)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("obs: %s: %w", kind, err), closeOpened())
		}
		opened = append(opened, f)
		return f, nil
	}

	if tracePath != "" {
		f, err := open(tracePath, "trace")
		if err != nil {
			return nil, nil, err
		}
		var sink Sink
		if strings.HasSuffix(tracePath, ".csv") {
			sink = NewCSVSink(f)
		} else {
			sink = NewJSONLSink(f)
		}
		o.Tracer = NewTracer(sink)
	}
	var metricsFile io.WriteCloser
	if metricsPath != "" {
		f, err := open(metricsPath, "metrics")
		if err != nil {
			return nil, nil, err
		}
		metricsFile = f
		o.Metrics = NewRegistry()
		o.Interval = NewIntervalRecorder(interval)
	}
	finish := func() error {
		var errs []error
		if o.Tracer != nil {
			errs = append(errs, o.Tracer.Close())
		}
		if metricsFile != nil {
			errs = append(errs, o.WriteMetricsJSON(metricsFile))
		}
		errs = append(errs, closeOpened())
		return errors.Join(errs...)
	}
	return o, finish, nil
}
