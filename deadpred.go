// Package deadpred is the public API of this reproduction of "Dead Page
// and Dead Block Predictors: Cleaning TLBs and Caches Together" (Mazumdar,
// Mitra, Basu — HPCA 2021).
//
// It exposes three layers:
//
//   - the simulated machine (System, Config): the paper's Table I platform
//     — split L1 TLBs over a unified L2 TLB, a radix page walker with
//     page-walk caches, a three-level inclusive cache hierarchy, and an
//     out-of-order timing core;
//   - the predictors: the paper's dpPred (dead-page) and cbPred
//     (correlating dead-block) plus the AIP, SHiP and oracle baselines;
//   - the evaluation: the 14 Table II workload models and the experiment
//     runner that regenerates every figure and table of the paper.
//
// # Quick start
//
//	cfg := deadpred.DefaultConfig()
//	sys, err := deadpred.New(cfg)
//	if err != nil { ... }
//	dp, cb, err := deadpred.AttachPaperPredictors(sys)
//	if err != nil { ... }
//	w, err := deadpred.WorkloadByName("cactusADM")
//	if err != nil { ... }
//	gen := w.New(1)
//	sys.Run(gen, 300_000) // warmup
//	sys.StartMeasurement()
//	sys.Run(gen, 1_000_000)
//	res := sys.Result()
//	fmt.Printf("IPC %.3f, LLT MPKI %.2f (dpPred bypassed %d fills)\n",
//		res.IPC, res.LLTMPKI, dp.Stats().Predictions)
//	_ = cb
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package deadpred

import (
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Machine model.
type (
	// System is one simulated machine instance.
	System = sim.System
	// Config describes the simulated machine (Table I defaults via
	// DefaultConfig).
	Config = sim.Config
	// CacheConfig sizes one data-cache level.
	CacheConfig = sim.CacheConfig
	// Result summarizes a measured simulation region.
	Result = sim.Result
)

// Workloads and traces.
type (
	// Workload is one entry of the paper's Table II suite.
	Workload = trace.Workload
	// Access is one memory reference of a trace.
	Access = trace.Access
	// Generator produces an unbounded deterministic access stream.
	Generator = trace.Generator
	// ErrGenerator is a Generator that latches mid-stream failures
	// (e.g. a replay of a corrupt trace file); check Err after draining.
	ErrGenerator = trace.ErrGenerator
	// MixSpec declares a custom workload as a weighted mix of streams.
	MixSpec = trace.MixSpec
	// StreamSpec is one stream of a MixSpec.
	StreamSpec = trace.StreamSpec
	// Pattern selects how a stream walks its region.
	Pattern = trace.Pattern
)

// Stream patterns for custom workloads.
const (
	// PatternSequential walks the region element by element.
	PatternSequential = trace.Sequential
	// PatternStrided walks with a fixed (often page-crossing) stride.
	PatternStrided = trace.Strided
	// PatternRandom touches uniformly random elements.
	PatternRandom = trace.Random
	// PatternPointerChase touches random elements with each access
	// dependent on the previous (serialized by the core).
	PatternPointerChase = trace.PointerChase
	// PatternHotCold splits accesses between a hot subset and the region.
	PatternHotCold = trace.HotCold
	// PatternSkewed draws elements with power-law popularity.
	PatternSkewed = trace.Skewed
)

// Predictors.
type (
	// DPPred is the paper's dead-page predictor (§V-A).
	DPPred = core.DPPred
	// CBPred is the paper's correlating dead-block predictor (§V-B).
	CBPred = core.CBPred
	// DPPredConfig parameterizes dpPred.
	DPPredConfig = core.DPPredConfig
	// CBPredConfig parameterizes cbPred.
	CBPredConfig = core.CBPredConfig
	// TLBPredictor is the LLT predictor interface.
	TLBPredictor = pred.TLBPredictor
	// LLCPredictor is the LLC predictor interface.
	LLCPredictor = pred.LLCPredictor
)

// Observability (DESIGN.md §8).
type (
	// Observer bundles the telemetry hooks a System or Runner accepts.
	Observer = obs.Observer
	// Tracer stamps structured hook-point events and streams them to a
	// sink.
	Tracer = obs.Tracer
	// TraceEvent is one recorded hook-point event.
	TraceEvent = obs.Event
	// TraceSink receives events as they are emitted (JSONL, CSV, null).
	TraceSink = obs.Sink
	// MetricsRegistry holds named probes and histograms.
	MetricsRegistry = obs.Registry
	// IntervalRecorder collects per-N-access time-series samples.
	IntervalRecorder = obs.IntervalRecorder
	// IntervalSample is one time-series point.
	IntervalSample = obs.IntervalSample
)

// Experiments.
type (
	// Runner executes experiment setups with memoization.
	Runner = exp.Runner
	// Params sets simulation lengths for experiments.
	Params = exp.Params
	// Series is a formatted experiment result grid.
	Series = exp.Series
	// Setup names a machine + predictor combination.
	Setup = exp.Setup
)

// DefaultConfig returns the paper's Table I machine configuration.
func DefaultConfig() Config { return sim.DefaultConfig() }

// New builds a simulated machine with no predictors attached.
func New(cfg Config) (*System, error) { return sim.New(cfg) }

// Workloads returns the Table II workload suite in the paper's order.
func Workloads() []Workload { return trace.Workloads() }

// WorkloadByName finds a Table II workload ("cactusADM", "cc", "cg.B",
// "sssp", "lbm", "Triangle", "KCore", "canneal", "pr", "graph500", "bfs",
// "bc", "mis", "mcf").
func WorkloadByName(name string) (Workload, error) { return trace.ByName(name) }

// NewMix builds a generator for a custom workload specification.
func NewMix(spec MixSpec, seed uint64) (Generator, error) { return trace.NewMix(spec, seed) }

// RecordTrace captures n accesses from a generator into w as a DPBF v2
// trace file, the format cmd/tracedump writes (name it with a .dpbf
// extension). Recording streams chunk by chunk, whatever n is.
func RecordTrace(w io.Writer, g Generator, n uint64) error { return trace.RecordV2(w, g, n) }

// OpenTrace opens a recorded trace file of size bytes, in any of the
// repository's formats, as a Generator that wraps at the end of the trace.
// A DPBF v2 file streams; older DPTR and DPBF v1 files are read into
// memory first. Read errors during replay latch: check Err after a run.
func OpenTrace(r io.ReaderAt, size int64) (ErrGenerator, error) { return trace.Open(r, size) }

// AttachPaperPredictors installs the paper's full proposal — dpPred on the
// LLT and cbPred on the LLC, coupled through the PFN filter queue — with
// the default §V parameters, and returns both predictors for inspection.
func AttachPaperPredictors(s *System) (*DPPred, *CBPred, error) {
	dp, err := core.NewDPPred(core.DefaultDPPredConfig(s.LLT().Entries()))
	if err != nil {
		return nil, nil, err
	}
	cb, err := core.NewCBPred(core.DefaultCBPredConfig(s.LLC().Capacity()))
	if err != nil {
		return nil, nil, err
	}
	s.SetTLBPredictor(dp)
	s.SetLLCPredictor(cb)
	return dp, cb, nil
}

// AttachDPPred installs only the dead-page predictor with default
// parameters.
func AttachDPPred(s *System) (*DPPred, error) {
	dp, err := core.NewDPPred(core.DefaultDPPredConfig(s.LLT().Entries()))
	if err != nil {
		return nil, err
	}
	s.SetTLBPredictor(dp)
	return dp, nil
}

// NewRunner creates an experiment runner.
func NewRunner(p Params) *Runner { return exp.NewRunner(p) }

// DefaultParams returns the full-fidelity experiment parameters; see
// QuickParams for a faster smoke configuration.
func DefaultParams() Params { return exp.DefaultParams() }

// QuickParams returns fast experiment parameters for demos and CI.
func QuickParams() Params { return exp.QuickParams() }

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer creates a tracer writing to sink. Use NewJSONLSink/NewCSVSink
// for file output or obs.NullSink to only count events.
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// NewJSONLSink streams events to w as one JSON object per line.
func NewJSONLSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONLSink(w) }

// NewCSVSink streams events to w as CSV rows under a fixed header.
func NewCSVSink(w io.Writer) *obs.CSVSink { return obs.NewCSVSink(w) }

// NewIntervalRecorder creates an interval recorder sampling every `every`
// accesses.
func NewIntervalRecorder(every uint64) *IntervalRecorder { return obs.NewIntervalRecorder(every) }
