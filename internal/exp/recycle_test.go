package exp

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recycleParams keeps the storage-pool tests short: long enough to fill
// every structure of the machine, so recycled arrays carry real state.
var recycleParams = Params{Warmup: 20_000, Measure: 20_000, Seed: 3, SampleEvery: 5_000}

// freshRunner is a sequential runner without a storage pool: every array
// it builds is new, so its results are the reference a recycled machine
// must match.
func freshRunner(p Params) *Runner {
	r := NewRunner(p)
	r.SetJobs(1)
	r.pool = nil
	return r
}

func workload(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRecycledMachineMatchesFresh runs every catalog setup, the multi-core
// sweep's included, and two more multi-core cells on machines drawn from a
// pool that other geometries dirtied first — iso-storage's 1152-entry
// 9-way LLT shares its set count with the Table I LLT, and a cbPred LLC
// leaves payload fields in its blocks — and requires the Result a fresh
// machine gives.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	if raceDetector {
		t.Skip("every catalog setup twice; the pooled grid is raced by TestPooledGridMatchesFresh")
	}
	dirty := NewRunner(recycleParams)
	dirty.SetJobs(1)
	if err := dirty.RunGrid([]trace.Workload{workload(t, "mcf")}, []Setup{IsoStorageSetup(), DPPredCBPredSetup()}); err != nil {
		t.Fatal(err)
	}
	if st := dirty.Storage(); st.Recycled == 0 || st.Kept != 0 {
		t.Fatalf("dirtying grid: %+v, want machines recycled and none kept", st)
	}

	catalogOnce.Do(buildCatalog)
	names := make([]string, 0, len(catalogMap))
	for name := range catalogMap {
		names = append(names, name)
	}
	sort.Strings(names)
	w := workload(t, "sssp")
	for _, name := range names {
		su := catalogMap[name]
		got, err := dirty.Run(w, su)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := freshRunner(recycleParams).Run(w, su)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffResults(t, name, w.Name, got, want)
	}

	for _, su := range []Setup{Baseline(), DPPredCBPredSetup()} {
		su.Name += " (2c×3t)"
		su.Topology = Topology{Cores: 2, Tenants: 3, Quantum: 5_000, Shootdown: sim.ShootdownFlushASID, UnmapEvery: 7_000}
		got, err := dirty.Run(w, su)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshRunner(recycleParams).Run(w, su)
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, su.Name, w.Name, got, want)
	}
	if st := dirty.Storage(); st.Built != st.Recycled+st.Kept || st.Kept != 0 || st.TracesReused == 0 {
		t.Errorf("storage %+v: want every machine recycled and trace buffers reused", st)
	}
}

// TestPooledGridMatchesFresh races a -jobs 4 grid on one runner's pool —
// warm masters with several forks, oracle passes, payload and tag-only
// LLCs — against a sequential pool-less runner, and checks that every
// machine went back to the pool.
func TestPooledGridMatchesFresh(t *testing.T) {
	ws := []trace.Workload{workload(t, "cc"), workload(t, "sssp"), workload(t, "mcf")}
	setups := []Setup{Baseline(), DPPredSetup(), withAccuracy(DPPredSetup()),
		DPPredCBPredSetup(), withAccuracy(DPPredCBPredSetup()), SHiPLLCSetup(),
		IsoStorageSetup(), OracleSetup()}
	pooled := NewRunner(recycleParams)
	pooled.SetJobs(4)
	if err := pooled.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}
	fresh := freshRunner(recycleParams)
	if err := fresh.RunGrid(ws, setups); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, su := range setups {
			got, err := pooled.Run(w, su)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(w, su)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, su.Name, w.Name, got, want)
		}
	}
	if forked, _ := pooled.WarmForks(); forked == 0 {
		t.Error("no warm forks: the grid does not exercise master release")
	}
	st := pooled.Storage()
	if st.Recycled == 0 || st.Kept != 0 || st.Built != st.Recycled {
		t.Errorf("storage %+v: want every machine recycled", st)
	}
}

// TestStorageKeepsObservedMachines: a machine an observer watches never
// goes back to the pool, whether it is a single machine with the observer
// attached or a multi-core one registering its metrics, and Storage counts
// it as kept.
func TestStorageKeepsObservedMachines(t *testing.T) {
	r := NewRunner(recycleParams)
	r.Observer = &obs.Observer{Tracer: obs.NewTracer(obs.NullSink{}), Metrics: obs.NewRegistry()}
	if _, err := r.Run(workload(t, "cc"), DPPredSetup()); err != nil {
		t.Fatal(err)
	}
	multi := DPPredSetup()
	multi.Name, multi.Topology = "dpPred (2c×2t)", Topology{Cores: 2, Tenants: 2}
	if _, err := r.Run(workload(t, "cc"), multi); err != nil {
		t.Fatal(err)
	}
	if st := r.Storage(); st.Built != 2 || st.Kept != 2 || st.Recycled != 0 {
		t.Errorf("after two observed runs: %+v, want 2 built, 2 kept", st)
	}
	for name := range r.Observer.Metrics.Histograms() {
		if strings.HasPrefix(name, "cc/dpPred (2c×2t)/core1.") {
			return
		}
	}
	t.Error("no core1 histogram under the multi-core cell's cc/dpPred (2c×2t)/ scope")
}

// TestReleasedTracePanics: once the last reader drops a trace node, the
// runner returns the buffer's columns to its pool, and a cursor that
// outlived its edge panics instead of reading another trace.
func TestReleasedTracePanics(t *testing.T) {
	r := NewRunner(Params{Warmup: 1_000, Measure: 1_000, Seed: 1})
	w := workload(t, "cc")
	p := r.planGrid(context.Background(), []trace.Workload{w}, []Setup{Baseline(), DPPredSetup()})
	g, err := r.generator(context.Background(), w, p.traces[w.Name+"/baseline"])
	if err != nil {
		t.Fatal(err)
	}
	g.Next()
	for _, te := range p.traces {
		te.drop()
	}
	if made, freed := r.Traces(); made != 1 || freed != 1 {
		t.Fatalf("traces %d made, %d released; want 1, 1", made, freed)
	}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "released") {
			t.Errorf("read of a released trace: panic %v, want one naming the release", p)
		}
	}()
	g.Next()
}
