package exp

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

var cellTestParams = Params{Warmup: 4_000, Measure: 12_000, Seed: 1, SampleEvery: 4_000}

// TestCellKeyIdentity: equal cells key equal, and every dimension of a
// cell — workload stream, setup name, instrumentation, each parameter —
// perturbs the key.
func TestCellKeyIdentity(t *testing.T) {
	w := testWorkload(t, "cc")
	p := cellTestParams
	fp, err := WorkloadFingerprint(w, p.Seed, p.Warmup+p.Measure)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := WorkloadFingerprint(w, p.Seed, p.Warmup+p.Measure)
	if err != nil {
		t.Fatal(err)
	}
	if fp != fp2 {
		t.Fatalf("fingerprint not deterministic: %s vs %s", fp, fp2)
	}
	otherFP, err := WorkloadFingerprint(testWorkload(t, "mcf"), p.Seed, p.Warmup+p.Measure)
	if err != nil {
		t.Fatal(err)
	}
	if otherFP == fp {
		t.Fatal("distinct workloads share a fingerprint")
	}
	seedFP, err := WorkloadFingerprint(w, p.Seed+1, p.Warmup+p.Measure)
	if err != nil {
		t.Fatal(err)
	}
	if seedFP == fp {
		t.Fatal("distinct seeds share a fingerprint")
	}

	base := CellKey(fp, Baseline(), p)
	if got := CellKey(fp, Baseline(), p); got != base {
		t.Fatal("CellKey not deterministic")
	}
	if len(base) != 64 {
		t.Fatalf("CellKey length = %d, want 64 hex chars", len(base))
	}
	distinct := map[string]string{"base": base}
	record := func(label, key string) {
		for prev, k := range distinct {
			if k == key {
				t.Fatalf("cell key collision between %s and %s", prev, label)
			}
		}
		distinct[label] = key
	}
	record("setup", CellKey(fp, DPPredSetup(), p))
	record("accuracy", CellKey(fp, withAccuracy(Baseline()), p))
	record("oracle", CellKey(fp, OracleSetup(), p))
	confusion := Baseline()
	confusion.Instrument.Confusion = true
	record("confusion", CellKey(fp, confusion, p))
	for _, t := range []Topology{{Cores: 2}, {Tenants: 2}, {Quantum: 1}, {Shootdown: sim.ShootdownFullFlush}, {UnmapEvery: 1}} {
		multi := Baseline()
		multi.Topology = t
		record(fmt.Sprintf("topology %+v", t), CellKey(fp, multi, p))
	}
	record("fingerprint", CellKey(otherFP, Baseline(), p))
	pp := p
	pp.Warmup++
	record("warmup", CellKey(fp, Baseline(), pp))
	pp = p
	pp.Measure++
	record("measure", CellKey(fp, Baseline(), pp))
	pp = p
	pp.Seed++
	record("seed", CellKey(fp, Baseline(), pp))
	pp = p
	pp.SampleEvery++
	record("sample-every", CellKey(fp, Baseline(), pp))
}

// TestCatalogResolvesEveryStandardSetup: every name the experiment suite
// can put in a grid resolves, the resolved setup carries the same identity
// flags, and the "+acc" convention matches withAccuracy.
func TestCatalogResolvesEveryStandardSetup(t *testing.T) {
	names := catalogNames()
	if len(names) < 30 {
		t.Fatalf("catalog suspiciously small: %d setups", len(names))
	}
	for _, name := range names {
		su, ok := ResolveSetup(name)
		if !ok {
			t.Fatalf("catalogNames lists %q but ResolveSetup declines it", name)
		}
		if su.Name != name {
			t.Fatalf("ResolveSetup(%q) returned setup named %q", name, su.Name)
		}
		acc, ok := ResolveSetup(name + "+acc")
		if !ok {
			t.Fatalf("accuracy variant %q+acc does not resolve", name)
		}
		if acc.Name != name+"+acc" || !acc.Instrument.Accuracy {
			t.Fatalf("accuracy variant of %q malformed: name=%q accuracy=%v", name, acc.Name, acc.Instrument.Accuracy)
		}
	}
	// The specific names the figures and tables use must all be present.
	for _, name := range []string{
		"baseline", "characterize", "dpPred", "dpPred+cbPred", "AIP-TLB", "SHiP-TLB",
		"AIP-LLC", "SHiP-LLC", "AIP-TLB+LLC", "SHiP-TLB+LLC", "iso-storage", "oracle",
		"dpPred-SH", "dpPred+cbPred-PF", "base-llt512", "dpPred-llt1536",
		"dpPred-6pc5vpn", "dpPred-10pc", "dpPred-sh4", "dpPred+cbPred-pfq64",
		"base-llc2048", "dpPred+cbPred-llc3072", "srrip-llt", "srrip-cbPred",
		"distance-prefetch", "dpPred+prefetch", "DIP-LLT", "DIP+dpPred",
		"dpPred-th2", "dpPred-ctr4",
		"1c×1t", "1c×2t", "1c×4t", "2c×1t", "2c×2t", "2c×4t", "4c×1t", "4c×2t", "4c×4t",
	} {
		if _, ok := ResolveSetup(name); !ok {
			t.Errorf("standard setup %q missing from the catalog", name)
		}
	}
	// The multi-core sweep's names resolve to its own setups.
	for _, su := range multiCoreSetups(multiCoreDims, multiCoreDims) {
		if got, _ := ResolveSetup(su.Name); CellKey("", got, cellTestParams) != CellKey("", su, cellTestParams) {
			t.Errorf("sweep setup %q resolves to a different cell", su.Name)
		}
	}
	if _, ok := ResolveSetup("no-such-setup"); ok {
		t.Fatal("ResolveSetup accepted an unknown name")
	}
}

// TestExperimentsResolve: experiment IDs are unique, and every setup of
// every Experiments() grid and of the default arena resolves through the
// catalog to the same cell.
func TestExperimentsResolve(t *testing.T) {
	arena, err := Arena(nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{"storage": true} // paperexp -only takes storage too
	for _, e := range append(Experiments(), arena) {
		if ids[e.ID] {
			t.Errorf("experiment ID %q appears twice", e.ID)
		}
		ids[e.ID] = true
		for _, su := range e.Grid() {
			got, ok := ResolveSetup(su.Name)
			if !ok {
				t.Errorf("%s: setup %q is not in the catalog", e.ID, su.Name)
			} else if CellKey("", got, cellTestParams) != CellKey("", su, cellTestParams) {
				t.Errorf("%s: setup %q resolves to a different cell", e.ID, su.Name)
			}
		}
	}
}

// TestResolvedSetupMatchesOriginal: a catalog-resolved setup simulates the
// same bytes as the experiment suite's own construction — the property the
// whole distributed plane rests on.
func TestResolvedSetupMatchesOriginal(t *testing.T) {
	w := testWorkload(t, "cc")
	for _, su := range []Setup{DPPredSetup(), dpPredNoShadowSetup(), thresholdSetup(2)} {
		local := NewRunner(cellTestParams)
		want, err := local.Run(w, su)
		if err != nil {
			t.Fatal(err)
		}
		resolved, ok := ResolveSetup(su.Name)
		if !ok {
			t.Fatalf("setup %q not resolvable", su.Name)
		}
		remote := NewRunner(cellTestParams)
		got, err := remote.Run(w, resolved)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("catalog-resolved %q diverges from the original construction", su.Name)
		}
	}
}

// memMemo is an in-memory CellMemo for runner-integration tests. Like any
// CellMemo it must tolerate concurrent grid cells.
type memMemo struct {
	mu      sync.Mutex
	entries map[string]sim.Result
	puts    int
}

func (m *memMemo) Get(key string) (sim.Result, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.entries[key]
	return res, ok, nil
}

func (m *memMemo) Put(key string, _ CellMeta, res sim.Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = map[string]sim.Result{}
	}
	m.entries[key] = res
	m.puts++
	return nil
}

func (m *memMemo) putCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.puts
}

// TestRunnerPersistentMemo: a runner with a Memo publishes every computed
// cell and a fresh runner over the same memo replays them all without
// simulating — the crash-resume delta contract in miniature.
func TestRunnerPersistentMemo(t *testing.T) {
	workloads := []trace.Workload{testWorkload(t, "cc"), testWorkload(t, "mcf")}
	setups := []Setup{Baseline(), DPPredSetup()}

	memo := &memMemo{}
	r1 := NewRunner(cellTestParams)
	r1.Memo = memo
	if err := r1.RunGrid(workloads, setups); err != nil {
		t.Fatal(err)
	}
	if memo.putCount() != len(workloads)*len(setups) {
		t.Fatalf("memo received %d puts, want %d", memo.putCount(), len(workloads)*len(setups))
	}

	ref := NewRunner(cellTestParams)
	if err := ref.RunGrid(workloads, setups); err != nil {
		t.Fatal(err)
	}

	var computed atomic.Int64
	r2 := NewRunner(cellTestParams)
	r2.Memo = memo
	r2.ProgressStart = func(_, _ string) { computed.Add(1) }
	if err := r2.RunGrid(workloads, setups); err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 0 {
		t.Fatalf("second run simulated %d cells despite a full memo", n)
	}
	for _, w := range workloads {
		for _, su := range setups {
			want, err := ref.Run(w, su)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r2.Run(w, su)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("memo-served %s/%s diverges from a fresh simulation", w.Name, su.Name)
			}
		}
	}
}

// TestExecutorFallback: cells a worker cannot rebuild by name run locally
// without reaching the executor, offloaded cells never touch the local
// simulation path, every computed cell opens exactly one progress span,
// and executor errors surface with the standard cell prefix.
func TestExecutorFallback(t *testing.T) {
	w := testWorkload(t, "cc")
	ref := NewRunner(cellTestParams)
	want, err := ref.Run(w, Baseline())
	if err != nil {
		t.Fatal(err)
	}

	var offered, adhocOffered atomic.Int64
	r := NewRunner(cellTestParams)
	spans := newSpanLog(r)
	r.Executor = func(ctx context.Context, key string, w trace.Workload, setup Setup, started func()) (sim.Result, error) {
		started()
		if setup.Name != "baseline" {
			adhocOffered.Add(1)
		}
		offered.Add(1)
		return want, nil
	}
	got, err := r.Run(w, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || offered.Load() != 1 {
		t.Fatal("offloaded cell did not serve the executor's result")
	}

	adhoc := Setup{Name: "adhoc-local"}
	if _, err := r.Run(w, adhoc); err != nil {
		t.Fatalf("ad-hoc cell failed to run locally: %v", err)
	}
	if n := adhocOffered.Load(); n != 0 {
		t.Fatalf("executor offered the ad-hoc cell %d times", n)
	}
	spans.check(t, 2, 1)

	r2 := NewRunner(cellTestParams)
	r2.Executor = func(context.Context, string, trace.Workload, Setup, func()) (sim.Result, error) {
		return sim.Result{}, context.DeadlineExceeded
	}
	_, err = r2.Run(w, Baseline())
	if err == nil || !strings.Contains(err.Error(), "cc under baseline") {
		t.Fatalf("executor error lost the cell prefix: %v", err)
	}
}

// passMemo is a CellMemo that never hits and keeps nothing, so a runner
// keys every cell without the memo changing what it computes.
type passMemo struct{}

func (passMemo) Get(string) (sim.Result, bool, error)   { return sim.Result{}, false, nil }
func (passMemo) Put(string, CellMeta, sim.Result) error { return nil }

// TestFingerprintOncePerWorkload: concurrent cells of one workload share
// its fingerprint. With a memo configured every cell is keyed before it
// takes a pool slot, and the first generator construction (the first
// fingerprint's) stalls, so every other cell arrives while it is in flight.
// The workload's generator must be built exactly twice: once to
// fingerprint the workload, once to materialize its trace.
func TestFingerprintOncePerWorkload(t *testing.T) {
	inner := testWorkload(t, "cc")
	var built atomic.Int64
	w := trace.Workload{Name: inner.Name, New: func(seed uint64) trace.Generator {
		if built.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		return inner.New(seed)
	}}
	r := NewRunner(cellTestParams)
	r.SetJobs(4)
	r.Memo = passMemo{}
	setups := []Setup{Baseline(), DPPredSetup(), SHiPTLBSetup(), AIPTLBSetup()}
	if err := r.RunGrid([]trace.Workload{w}, setups); err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 2 {
		t.Fatalf("%d cells built the workload's generator %d times, want 2 (one fingerprint, one trace)", len(setups), n)
	}
}

// catalogNames lists every resolvable setup name (without the generated
// "+acc" variants), sorted.
func catalogNames() []string {
	catalogOnce.Do(buildCatalog)
	names := make([]string, 0, len(catalogMap))
	for n := range catalogMap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
