package sim

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/pred"
	"repro/internal/trace"
)

// warmSystem builds a dpPred+cbPred machine, warms it over a materialized
// buffer, and returns the system plus the shared buffer and post-warmup
// cursor. dpPred+cbPred is the deepest-state configuration, so it exercises
// every Clone path.
func warmSystem(t testing.TB, warm uint64) (*System, *trace.Buffer, uint64) {
	return warmSystemIn(t, warm, nil)
}

// warmSystemIn is warmSystem on a machine whose storage comes from p.
func warmSystemIn(t testing.TB, warm uint64, p *pool.Pool) (*System, *trace.Buffer, uint64) {
	t.Helper()
	s, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 1, Tenants: 1, Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := newTestDPPred(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTLBPredictor(dp)
	cb, err := core.NewCBPred(core.DefaultCBPredConfig(s.LLC().Capacity()))
	if err != nil {
		t.Fatal(err)
	}
	s.SetLLCPredictor(cb)

	w, err := trace.ByName("sssp")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := trace.MaterializeContext(context.Background(), w.New(42), warm+400_000)
	if err != nil {
		t.Fatal(err)
	}
	rd := buf.Reader()
	if err := s.Run(rd, warm); err != nil {
		t.Fatal(err)
	}
	return s, buf, rd.Pos()
}

func measureFrom(t *testing.T, s *System, buf *trace.Buffer, pos, n uint64) Result {
	t.Helper()
	s.StartMeasurement()
	if err := s.Run(readerAt(buf, pos), n); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	return s.Result()
}

// TestForkBitIdentical is the fork contract: measuring on a fork must be
// bit-identical to measuring on the master it was taken from — on the
// plain machine and on a 2-core 3-tenant one with context switching and
// unmap injection.
func TestForkBitIdentical(t *testing.T) {
	t.Run("1x1", func(t *testing.T) {
		const warm, meas = 100_000, 200_000
		s, buf, pos := warmSystem(t, warm)
		f, err := s.Fork()
		if err != nil {
			t.Fatal(err)
		}
		got := measureFrom(t, f, buf, pos, meas)
		want := measureFrom(t, s, buf, pos, meas)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("forked run diverged from master:\n  fork=%+v\n  master=%+v", got, want)
		}
	})
	t.Run("2x3", func(t *testing.T) {
		const warm, meas = 60_000, 120_000
		m, bufs, pos := warmMulti(t, warm)
		f, err := m.Fork()
		if err != nil {
			t.Fatal(err)
		}
		got := runMulti(t, f, readers(bufs, pos), meas)
		want := runMulti(t, m, readers(bufs, pos), meas)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("forked run diverged from master:\n  fork=%+v\n  master=%+v", got, want)
		}
	})
}

// TestForkSiblingsIndependent: running one fork must not perturb another.
// Both siblings replay the same stream, so their results must be bit-equal
// regardless of execution order.
func TestForkSiblingsIndependent(t *testing.T) {
	const warm, meas = 100_000, 200_000
	s, buf, pos := warmSystem(t, warm)
	a, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	ra := measureFrom(t, a, buf, pos, meas)
	rb := measureFrom(t, b, buf, pos, meas)
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("sibling forks diverged:\n  a=%+v\n  b=%+v", ra, rb)
	}
}

// TestConcurrentSiblingForks runs sibling forks in parallel goroutines over
// the same shared buffer. Under -race this proves forks share no mutable
// state with each other or with the read-only trace.
func TestConcurrentSiblingForks(t *testing.T) {
	const warm, meas, n = 80_000, 150_000, 4
	s, buf, pos := warmSystem(t, warm)

	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		f, err := s.Fork()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, f *System) {
			defer wg.Done()
			f.StartMeasurement()
			if err := f.Run(readerAt(buf, pos), meas); err != nil {
				t.Error(err)
				return
			}
			f.Finish()
			results[i] = f.Result()
		}(i, f)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("concurrent fork %d diverged:\n  got=%+v\n  want=%+v", i, results[i], results[0])
		}
	}
}

// TestForkRefusals: a fork would alias live instrumentation or observer
// state, and non-clonable predictors (the two-pass oracle machinery) cannot
// be duplicated — all must be refused, not silently shallow-copied.
func TestForkRefusals(t *testing.T) {
	t.Run("accuracy", func(t *testing.T) {
		s := MustNew(smallConfig())
		if err := s.EnableAccuracyTracking(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Fork(); err == nil {
			t.Error("fork with accuracy tracking enabled was not refused")
		}
	})
	t.Run("characterize", func(t *testing.T) {
		s := MustNew(smallConfig())
		characterize(t, s, 1000)
		if _, err := s.Fork(); err == nil {
			t.Error("fork with characterization enabled was not refused")
		}
	})
	t.Run("recorder", func(t *testing.T) {
		s := MustNew(smallConfig())
		s.SetTLBPredictor(pred.NewRecorderTLB(pred.NewDOARecord()))
		if _, err := s.Fork(); err == nil {
			t.Error("fork with the oracle recorder installed was not refused")
		}
	})
}

// BenchmarkSystemFork prices a warm-state fork of the full dpPred+cbPred
// machine — the cost the runner pays instead of re-simulating a warmup.
// Like the runner's at one job, the master draws from a storage pool that
// keeps two idle arrays per size, and each fork is released into it, so a
// fork copies into recycled arrays.
func BenchmarkSystemFork(b *testing.B) {
	s, _, _ := warmSystemIn(b, 100_000, pool.New(2))
	benchFork(b, s)
}

// benchFork forks s b.N times, releasing each fork into s's pool.
func benchFork(b *testing.B, s *System) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Fork()
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

// BenchmarkSystemForkBaseline prices the same fork of the baseline machine
// (null predictors), whose data caches and page-walk caches are tag-only.
func BenchmarkSystemForkBaseline(b *testing.B) {
	s, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 1, Tenants: 1, Pool: pool.New(2)})
	if err != nil {
		b.Fatal(err)
	}
	w, err := trace.ByName("sssp")
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(w.New(42), 100_000); err != nil {
		b.Fatal(err)
	}
	benchFork(b, s)
}

// TestForkIsolation: a fork owns copies of its master's page tables. Two
// forks of one warm master map new pages and unmap others, and neither the
// master nor the sibling sees any of it; and a fork whose master was
// released, its storage recycled into a machine that has run since,
// measures exactly what a fork of the live master measures.
func TestForkIsolation(t *testing.T) {
	const warm, meas = 60_000, 100_000
	p := pool.New(2)
	build := func() *System {
		s, err := NewMulti(MultiConfig{Machine: smallConfig(), Cores: 1, Tenants: 1, UnmapEvery: 2_000, Pool: p})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	stream := func(name string, seed uint64, n uint64) *trace.Buffer {
		w, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := trace.MaterializeContext(context.Background(), w.New(seed), n)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	tables := func(s *System) []byte {
		var b bytes.Buffer
		w := ckpt.NewWriter(&b)
		s.tenants[0].pt.EncodeState(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	buf := stream("sssp", 42, warm+meas)
	m := build()
	rd := buf.Reader()
	if err := m.Run(rd, warm); err != nil {
		t.Fatal(err)
	}
	pos := rd.Pos()
	master := tables(m)

	a, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	sibling := tables(b)
	// Another workload's pages: a maps pages the master never touched and
	// unmaps some the master holds.
	if err := a.Run(stream("cc", 7, meas).Reader(), meas); err != nil {
		t.Fatal(err)
	}
	if a.counts.unmaps == m.counts.unmaps || bytes.Equal(tables(a), master) {
		t.Fatal("fork a neither mapped nor unmapped a page")
	}
	if !bytes.Equal(tables(m), master) || !bytes.Equal(tables(b), sibling) {
		t.Fatal("fork a's mappings reached its master or its sibling")
	}
	after := tables(a)
	if err := b.Run(stream("mcf", 9, meas).Reader(), meas); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tables(m), master) || !bytes.Equal(tables(a), after) {
		t.Fatal("fork b's mappings reached its master or its sibling")
	}
	a.Release()
	b.Release()

	live, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	want := measureFrom(t, live, buf, pos, meas)
	live.Release()
	orphan, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Release() {
		t.Fatal("the master kept its storage")
	}
	// The master's arrays go to a machine that runs over them.
	scribbler := build()
	if err := scribbler.Run(buf.Reader(), warm); err != nil {
		t.Fatal(err)
	}
	if got := measureFrom(t, orphan, buf, pos, meas); !reflect.DeepEqual(got, want) {
		t.Errorf("fork of a released master diverged:\n  got=%+v\n  want=%+v", got, want)
	}
}
