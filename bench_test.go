package deadpred

// One benchmark per paper artifact (DESIGN.md §5): `go test -bench=.`
// regenerates every table and figure at reduced trace lengths and reports
// the headline number of each as a custom metric. For full-fidelity
// numbers use cmd/paperexp.

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/obs"
)

// benchParams trades fidelity for benchmark runtime; the shapes survive,
// the absolute numbers are noisier than cmd/paperexp's defaults.
func benchParams() exp.Params {
	return exp.Params{Warmup: 20_000, Measure: 60_000, Seed: 1, SampleEvery: 5_000}
}

// benchSeries runs one experiment per iteration and reports the mean of
// the given summary column as the benchmark's headline metric.
func benchSeries(b *testing.B, fn func(*exp.Runner) (exp.Series, error), col int, metric string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		s, err := fn(r)
		if err != nil {
			b.Fatal(err)
		}
		last = s.Summary[col]
	}
	b.ReportMetric(last, metric)
}

func BenchmarkFig1DeadPagesSampled(b *testing.B) {
	benchSeries(b, exp.Figure1, 0, "mean-%dead-LLT")
}

func BenchmarkFig2DeadPageClassification(b *testing.B) {
	benchSeries(b, exp.Figure2, 1, "mean-%DOA-evictions")
}

func BenchmarkFig3DeadBlocksSampled(b *testing.B) {
	benchSeries(b, exp.Figure3, 0, "mean-%dead-LLC")
}

func BenchmarkFig4DeadBlockClassification(b *testing.B) {
	benchSeries(b, exp.Figure4, 1, "mean-%DOA-evictions")
}

func BenchmarkTable3DOACorrelation(b *testing.B) {
	benchSeries(b, exp.Table3, 0, "mean-%DOA-on-DOA-page")
}

func BenchmarkFig9TLBPredictorIPC(b *testing.B) {
	benchSeries(b, exp.Figure9, 2, "dpPred-geomean-IPC")
}

func BenchmarkTable4LLTMPKI(b *testing.B) {
	benchSeries(b, exp.Table4, 2, "dpPred-mean-MPKI-reduction-%")
}

func BenchmarkFig10LLCPredictorIPC(b *testing.B) {
	benchSeries(b, exp.Figure10, 4, "proposal-geomean-IPC")
}

func BenchmarkTable5LLCMPKI(b *testing.B) {
	benchSeries(b, exp.Table5, 2, "cbPred-mean-MPKI-reduction-%")
}

func BenchmarkTable6DPAccuracy(b *testing.B) {
	benchSeries(b, exp.Table6, 0, "dpPred-mean-accuracy-%")
}

func BenchmarkTable7CBAccuracy(b *testing.B) {
	benchSeries(b, exp.Table7, 0, "cbPred-mean-accuracy-%")
}

func BenchmarkFig11aLLTSize(b *testing.B) {
	benchSeries(b, exp.Figure11a, 1, "dpPred-1024e-geomean-IPC")
}

func BenchmarkFig11bPHISTConfig(b *testing.B) {
	benchSeries(b, exp.Figure11b, 1, "default-pHIST-geomean-IPC")
}

func BenchmarkFig11cShadowSize(b *testing.B) {
	benchSeries(b, exp.Figure11c, 0, "2-entry-shadow-geomean-IPC")
}

func BenchmarkFig11dPFQSize(b *testing.B) {
	benchSeries(b, exp.Figure11d, 0, "8-entry-PFQ-geomean-IPC")
}

func BenchmarkFig11eLLCSize(b *testing.B) {
	benchSeries(b, exp.Figure11e, 0, "2MB-LLC-geomean-IPC")
}

func BenchmarkFig11fSRRIP(b *testing.B) {
	benchSeries(b, exp.Figure11f, 3, "SRRIP+proposal-geomean-IPC")
}

func BenchmarkExtensionPrefetch(b *testing.B) {
	benchSeries(b, exp.ExtensionPrefetch, 2, "dpPred+prefetch-geomean-IPC")
}

func BenchmarkExtensionDIP(b *testing.B) {
	benchSeries(b, exp.ExtensionDIP, 2, "DIP+dpPred-geomean-IPC")
}

func BenchmarkAblationThreshold(b *testing.B) {
	benchSeries(b, exp.AblationThreshold, 2, "threshold6-geomean-IPC")
}

func BenchmarkAblationCounterBits(b *testing.B) {
	benchSeries(b, exp.AblationCounterBits, 1, "3bit-geomean-IPC")
}

func BenchmarkStorageOverhead(b *testing.B) {
	var kb float64
	for i := 0; i < b.N; i++ {
		rep, err := exp.StorageOverheads()
		if err != nil {
			b.Fatal(err)
		}
		kb = rep.Rows[2].KB() // dpPred+cbPred total
	}
	b.ReportMetric(kb, "proposal-KB")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (accesses per
// second through the full machine), the figure of merit for the simulator
// substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := DefaultConfig()
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := AttachPaperPredictors(sys); err != nil {
		b.Fatal(err)
	}
	w, err := WorkloadByName("cc")
	if err != nil {
		b.Fatal(err)
	}
	g := w.New(1)
	b.ResetTimer()
	if err := sys.Run(g, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatorThroughputTraced is the same run with full
// observability attached (ring-buffer tracing, metrics, interval
// sampling); the delta against BenchmarkSimulatorThroughput is the
// telemetry overhead when enabled.
func BenchmarkSimulatorThroughputTraced(b *testing.B) {
	cfg := DefaultConfig()
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := AttachPaperPredictors(sys); err != nil {
		b.Fatal(err)
	}
	o := &Observer{
		Tracer:   NewTracer(obs.NullSink{}),
		Metrics:  NewMetricsRegistry(),
		Interval: NewIntervalRecorder(50_000),
	}
	sys.AttachObserver(o)
	w, err := WorkloadByName("cc")
	if err != nil {
		b.Fatal(err)
	}
	g := w.New(1)
	b.ResetTimer()
	if err := sys.Run(g, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}
