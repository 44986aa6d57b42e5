package main

import (
	"math"
	"time"
)

// On a shared host the simulator's speed drifts by half over minutes: a
// neighbour on the same physical core takes execution slots and L1/L2
// capacity, and a whole 50-s run can fall into a slow stretch, so no
// statistic over one run's passes removes it. The untraced passes therefore
// run a fixed probe right before every cell and report each pass's times
// scaled to a quiet host: a pass's host slowdown is its probes' time over
// their nominal time, and the simulator slows by about that slowdown raised
// to the workload's hostExp. The probe lives here, outside the program, so
// it runs the same on every commit measured.

// probeNsPerIter is the probe loop's time per iteration on a quiet 2-vCPU
// x86-64 Xeon host: the unit of "quiet host" seconds.
const probeNsPerIter = 2.3

var probeSink uint64

// probe runs iters iterations of a register-only loop: a multiply-add
// chain and a data-dependent branch that mispredicts half the time. It
// touches no memory, so it leaves the cell's caches as they were, and it
// slows down with whatever takes the core's execution slots.
func probe(iters int) {
	x, s := uint64(7), probeSink
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x&0x100 != 0 {
			s += x >> 7
		} else {
			s ^= x << 3
		}
		s = s*31 + x>>60
	}
	probeSink = s
}

// passTimes are one untraced pass's measured times: the cells' summed span
// wall and process CPU, and the probes' summed wall and CPU.
type passTimes struct {
	wall, cpu           time.Duration
	probeWall, probeCPU time.Duration
	probeIters          int
}

func (p passOut) times() passTimes {
	var t passTimes
	for _, s := range p.spans {
		t.wall += s.end.Sub(s.start)
		t.cpu += s.procCPU
		t.probeWall += s.probeWall
		t.probeCPU += s.probeCPU
		t.probeIters += s.probeIters
	}
	return t
}

// slowdown is the probe's measured time over its nominal time.
func (t passTimes) slowdown(probe time.Duration) float64 {
	return probe.Seconds() / (float64(t.probeIters) * probeNsPerIter * 1e-9)
}

// quietWall and quietCPU are the pass's cell times scaled to a quiet host.
func (t passTimes) quietWall(exp float64) float64 {
	return t.wall.Seconds() / math.Pow(t.slowdown(t.probeWall), exp)
}

func (t passTimes) quietCPU(exp float64) float64 {
	return t.cpu.Seconds() / math.Pow(t.slowdown(t.probeCPU), exp)
}

// medianOf is the median of f over the passes.
func medianOf(ts []passTimes, f func(passTimes) float64) float64 {
	vs := make([]float64, len(ts))
	for i, t := range ts {
		vs[i] = f(t)
	}
	return median(vs)
}
