package exp

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// parallelTestParams is deliberately short: the determinism guarantee is
// length-independent, and the grid below covers every runner code path
// (baseline, predictors, the two-pass oracle, accuracy instrumentation and
// the characterization samplers).
var parallelTestParams = Params{Warmup: 15_000, Measure: 45_000, Seed: 7, SampleEvery: 5_000}

func parallelTestGrid(t *testing.T) ([]trace.Workload, []Setup) {
	t.Helper()
	var ws []trace.Workload
	for _, name := range []string{"cc", "sssp", "canneal", "cactusADM"} {
		w, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	setups := []Setup{
		Baseline(),
		DPPredSetup(),
		DPPredCBPredSetup(),
		OracleSetup(),
		withAccuracy(DPPredSetup()),
		characterizationSetup(),
	}
	return ws, setups
}

// TestParallelMatchesSequential is the tentpole acceptance test, kept as a
// permanent regression guard: the same seeded grid run with jobs=1 and
// jobs=8 must produce identical result maps, bit for bit.
func TestParallelMatchesSequential(t *testing.T) {
	ws, setups := parallelTestGrid(t)
	collect := func(jobs int) map[string]sim.Result {
		r := NewRunner(parallelTestParams)
		r.SetJobs(jobs)
		if err := r.RunGrid(ws, setups); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]sim.Result)
		for _, w := range ws {
			for _, su := range setups {
				res, err := r.Run(w, su)
				if err != nil {
					t.Fatal(err)
				}
				out[w.Name+"/"+su.Name] = res
			}
		}
		return out
	}

	seq := collect(1)
	par := collect(8)
	if len(seq) != len(par) {
		t.Fatalf("result maps differ in size: sequential %d, parallel %d", len(seq), len(par))
	}
	for key, want := range seq {
		if got := par[key]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parallel result diverged from sequential:\n  jobs=8: %+v\n  jobs=1: %+v", key, got, want)
		}
	}
}

// TestSingleFlightMemo hammers one memo key from many goroutines: the
// simulation must run exactly once and every caller must observe the same
// result.
func TestSingleFlightMemo(t *testing.T) {
	r := NewRunner(Params{Warmup: 5_000, Measure: 15_000, Seed: 1, SampleEvery: 5_000})
	r.SetJobs(8)
	var starts atomic.Int64
	r.ProgressStart = func(string, string) { starts.Add(1) }
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	results := make([]sim.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run(w, Baseline())
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("caller %d saw a different result", i)
		}
	}
	if got := starts.Load(); got != 1 {
		t.Errorf("simulation started %d times, want 1 (single-flight)", got)
	}
}

// seqLog is a trace sink that keeps every event's sequence number.
type seqLog struct{ seqs []uint64 }

func (l *seqLog) WriteEvent(ev obs.Event) error { l.seqs = append(l.seqs, ev.Seq); return nil }
func (*seqLog) Close() error                    { return nil }

// TestParallelObserverIsolation runs a grid with jobs=8 against one shared
// observer bundle and checks the isolation guarantees: every run's
// interval samples are contiguous (never interleaved with another run's),
// per-run indexes restart from zero, trace sequence numbers are globally
// monotone, and per-run metric scopes all materialize.
func TestParallelObserverIsolation(t *testing.T) {
	r := NewRunner(Params{Warmup: 10_000, Measure: 30_000, Seed: 1, SampleEvery: 5_000})
	r.SetJobs(8)
	events := &seqLog{}
	o := &obs.Observer{
		Tracer:   obs.NewTracer(events),
		Metrics:  obs.NewRegistry(),
		Interval: obs.NewIntervalRecorder(5_000),
	}
	r.Observer = o

	ws, _ := parallelTestGrid(t)
	setups := []Setup{Baseline(), DPPredSetup()}
	if err := r.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}

	if o.Tracer.Count() == 0 {
		t.Error("no events traced")
	}
	for i := 1; i < len(events.seqs); i++ {
		if events.seqs[i] <= events.seqs[i-1] {
			t.Fatalf("trace seq not monotone at event %d: %d after %d", i, events.seqs[i], events.seqs[i-1])
		}
	}

	finished := map[string]bool{}
	cur := ""
	lastIdx := -1
	for _, s := range o.Interval.Samples() {
		if s.Run != cur {
			if finished[s.Run] {
				t.Fatalf("interval samples for run %q interleaved with another run", s.Run)
			}
			if cur != "" {
				finished[cur] = true
			}
			cur = s.Run
			lastIdx = -1
		}
		if s.Index != lastIdx+1 {
			t.Fatalf("run %q: sample index %d after %d, want contiguous from 0", s.Run, s.Index, lastIdx)
		}
		lastIdx = s.Index
	}

	snap := o.Metrics.Snapshot()
	for _, w := range ws {
		for _, su := range setups {
			want := w.Name + "/" + su.Name + "/sim.accesses"
			if _, ok := snap[want]; !ok {
				t.Errorf("metrics snapshot missing per-run scope %q", want)
			}
		}
	}
}
