package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// Set-up repetitions: setup_s is the median over this many fresh
// processes. Set-ups that record traces take longer and vary less.
const (
	setupReps         = 9
	quickSetupReps    = 31
	setupChildTimeout = 60 * time.Second
)

// passCount is the number of untraced passes a run measures: --seconds
// divided by the workload's nominal pass time, at least one. It depends on
// nothing measured, so every commit runs the same number of passes.
func (b *bench) passCount(seconds float64) int {
	n := int(math.Round(seconds / b.spec.passSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// run sets the workload up, measures it, checks its outputs and returns
// the summary. Untraced, it runs passCount passes, each cell after a
// host-speed probe, and reports the median pass scaled to a quiet host;
// traced, it measures one
// untraced pass as the overhead reference and one traced pass, and builds
// the ledger.
func (b *bench) run(seconds float64, traced bool, source string) (summary, error) {
	stampHost(b, source, traced)
	ctx := context.Background()

	reps := quickSetupReps
	if b.spec.streamed {
		reps = setupReps
	}
	var setups, setupSlow []float64
	if !traced {
		var err error
		if setups, setupSlow, err = b.timeSetups(reps); err != nil {
			return summary{}, fmt.Errorf("set-up: %w", err)
		}
	}
	if err := b.setup(ctx, filepath.Join(b.dir, "traces")); err != nil {
		return summary{}, fmt.Errorf("set-up: %w", err)
	}

	s := summary{Correct: true, Metrics: map[string]metric{}}
	var passes []passOut
	check := func(p passOut, label string) {
		s.Attempted += len(p.cells)
		s.Failed += p.failed()
		if err := b.checkCells(p.cells); err != nil {
			fmt.Printf("check FAILED (%s): %v\n", label, err)
			s.Correct = false
		}
		if p.failed() > 0 {
			for _, c := range p.cells {
				if c.err != nil {
					fmt.Printf("check FAILED (%s): %s: %v\n", label, c.name(), c.err)
				}
			}
			s.Correct = false
		}
		d := gridDigest(p.cells)
		fmt.Printf("digest %s %s %s\n", b.spec.name, label, d)
		if len(passes) > 0 {
			if want := gridDigest(passes[0].cells); d != want {
				fmt.Printf("check FAILED: %s digest %s differs from pass 1's %s\n", label, d, want)
				for i, c := range p.cells {
					if i < len(passes[0].cells) && cellDigest(c) != cellDigest(passes[0].cells[i]) {
						fmt.Printf("  cell %s: %s vs %s\n", c.name(), cellDigest(c), cellDigest(passes[0].cells[i]))
					}
				}
				s.Correct = false
			}
		}
		passes = append(passes, p)
	}

	if !traced {
		b.probing = true
		for i, n := 0, b.passCount(seconds); i < n; i++ {
			p, err := b.pass(ctx, false)
			if err != nil {
				return summary{}, err
			}
			check(p, fmt.Sprintf("pass%d", i+1))
		}
		k := b.spec.hostExp
		ts, allocs := make([]passTimes, len(passes)), make([]float64, len(passes))
		for i, p := range passes {
			if len(p.spans) != b.cellsPerPass() {
				return summary{}, fmt.Errorf("pass %d spanned %d cells, want %d", i+1, len(p.spans), b.cellsPerPass())
			}
			ts[i], allocs[i] = p.times(), float64(p.alloc)/(1<<20)
			t := ts[i]
			fmt.Printf("pass %d wall=%.4fs cells=%.4fs cells_cpu=%.4fs slowdown=%.3f quiet_wall=%.4fs quiet_cpu=%.4fs alloc=%.1fMB\n",
				i+1, p.wall.Seconds(), t.wall.Seconds(), t.cpu.Seconds(), t.slowdown(t.probeWall), t.quietWall(k), t.quietCPU(k), allocs[i])
		}
		quietSetups := make([]float64, len(setups))
		for i := range setups {
			quietSetups[i] = setups[i] / setupSlow[i]
		}
		fmt.Printf("setup processes=%d min=%.4fs median=%.4fs max=%.4fs slowdown median=%.3f quiet median=%.4fs\n",
			len(setups), minOf(setups), median(setups), maxOf(setups), median(setupSlow), median(quietSetups))
		// With one job the cells tile a pass: a pass's time is its cells'
		// summed spans, wall and process CPU, scaled to a quiet host by the
		// probes run between them (hostspeed.go). The figures are the
		// median pass.
		nominal := b.nominalAccesses()
		wall := medianOf(ts, func(t passTimes) float64 { return t.quietWall(k) })
		cpu := medianOf(ts, func(t passTimes) float64 { return t.quietCPU(k) })
		fmt.Printf("host slowdown median=%.3f exponent=%.2f raw_cells_wall median=%.4fs\n",
			medianOf(ts, func(t passTimes) float64 { return t.slowdown(t.probeWall) }), k,
			medianOf(ts, func(t passTimes) float64 { return t.wall.Seconds() }))
		s.Metrics["wall_s"] = metric{wall, "s"}
		s.Metrics["accesses_per_s"] = metric{nominal / wall, "1/s"}
		s.Metrics["accesses_per_cpu_s"] = metric{nominal / cpu, "1/s"}
		s.Metrics["setup_s"] = metric{median(quietSetups), "s"}
		s.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		s.Metrics["alloc_mb"] = metric{median(allocs), "MB"}
		fmt.Printf("work passes=%d cells_per_pass=%d machine_passes=%d nominal_accesses=%.0f error_rate=%g\n",
			len(passes), b.cellsPerPass(), b.machinePasses(), nominal, safeDiv(float64(s.Failed), float64(s.Attempted)))
		printMetrics(s.Metrics)
		return s, nil
	}

	// Traced: an untraced pass as the overhead reference, then the traced
	// pass under the CPU profiler.
	up, err := b.pass(ctx, false)
	if err != nil {
		return summary{}, err
	}
	check(up, "untraced")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return summary{}, err
	}
	tp, err := b.pass(ctx, true)
	pprof.StopCPUProfile()
	if err != nil {
		return summary{}, err
	}
	check(tp, "traced")
	for _, c := range sortedCells(tp.cells) {
		fmt.Printf("cell %-28s %s\n", c.name(), cellDigest(c))
	}
	shares, err := flatShares(prof.Bytes())
	if err != nil {
		return summary{}, err
	}
	led, err := b.buildLedger(ctx, tp, up, shares, os.Stdout)
	if err != nil {
		return summary{}, err
	}
	s.Metrics = led.metrics
	printMetrics(s.Metrics)
	return s, nil
}

// timeSetups runs the set-up in reps fresh processes of this program, one
// after another, and returns each one's time from start to exit: process
// and runtime start-up, flag parsing, building the runner and, for streamed
// workloads, recording the traces — everything before the first access.
// Before each process it runs the host-speed probe and returns its
// slowdown beside the time; set-up is scaled by the slowdown itself, since
// no exponent was fitted for it.
func (b *bench) timeSetups(reps int) (times, slowdowns []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < reps; i++ {
		p0 := time.Now()
		probe(b.spec.probeIters)
		slowdowns = append(slowdowns, time.Since(p0).Seconds()/(float64(b.spec.probeIters)*probeNsPerIter*1e-9))
		ctx, cancel := context.WithTimeout(context.Background(), setupChildTimeout)
		cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", b.spec.name,
			"-seed", strconv.FormatUint(b.seed, 10), "-workdir", b.dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		t0 := time.Now()
		err := cmd.Run()
		d := time.Since(t0)
		cancel()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up process %d: %w", i+1, err)
		}
		times = append(times, d.Seconds())
	}
	return times, slowdowns, nil
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

func minOf(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		m = math.Min(m, v)
	}
	return m
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
