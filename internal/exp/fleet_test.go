package exp_test

import (
	"context"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/expserve"
	"repro/internal/obs"
	"repro/internal/obs/serve"
)

// TestMultiCoreSweepThroughFleet: a reduced multi-core sweep whose cells
// an in-process coordinator hands to one worker, which rebuilds each
// topology from the setup catalog by name, prints the local table byte
// for byte.
func TestMultiCoreSweepThroughFleet(t *testing.T) {
	p := exp.Params{Warmup: 20_000, Measure: 40_000, Seed: 1}
	dims := []int{1, 2}
	want, err := exp.MultiCoreSweepOf(exp.NewRunner(p), dims, dims)
	if err != nil {
		t.Fatal(err)
	}

	memo, err := expserve.OpenDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := expserve.NewCoordinator(p)
	coord.Log = io.Discard
	coord.PollInterval = 20 * time.Millisecond
	reg := obs.NewRegistry()
	srv := serve.NewServer(reg, serve.NewBoard())
	coord.Mount(srv, reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	coord.Start()
	defer coord.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker := make(chan error, 1)
	go func() {
		worker <- expserve.RunWorker(ctx, expserve.WorkerConfig{Coordinator: ts.URL, Jobs: 1, ID: "w0", Log: io.Discard})
	}()
	r := exp.NewRunner(p)
	r.Memo, r.Executor = memo, coord.Execute
	got, err := exp.MultiCoreSweepOf(r, dims, dims)
	coord.Finish()
	if werr := <-worker; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.Format() != want.Format() {
		t.Errorf("fleet sweep differs from the local one:\n-- local --\n%s\n-- fleet --\n%s", want.Format(), got.Format())
	}
	if n := coord.Counts(); n.Computed != 4 || n.Failed != 0 {
		t.Errorf("coordinator counts %+v, want 4 computed by the worker", n)
	}
}
