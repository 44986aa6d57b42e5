package sim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// FuzzMultiCoreDeterminism is the machine-level determinism contract under
// fuzzer-chosen topologies: any (cores, tenants, quantum, unmap cadence,
// shootdown policy, workload seed) combination must produce deeply equal
// results when run twice from scratch, and those results must match the
// per-access reference driver's. Scheduling, shootdown broadcast order,
// shared-structure contention and ASID tagging all sit under this single
// invariant.
func FuzzMultiCoreDeterminism(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint16(0), uint16(0), uint64(1), false)
	f.Add(uint8(2), uint8(3), uint16(700), uint16(900), uint64(7), false)
	f.Add(uint8(4), uint8(6), uint16(250), uint16(400), uint64(42), true)
	f.Fuzz(func(t *testing.T, cores, tenants uint8, quantum, unmapEvery uint16, seed uint64, fullFlush bool) {
		mc := MultiConfig{
			Machine:    smallConfig(),
			Cores:      int(cores%4) + 1,
			Tenants:    int(tenants%6) + 1,
			Quantum:    uint64(quantum),
			UnmapEvery: uint64(unmapEvery),
			Shootdown:  ShootdownFlushASID,
		}
		if fullFlush {
			mc.Shootdown = ShootdownFullFlush
		}
		const steps = 12_000
		bufs := multiBuffers(t, mc.Tenants, seed, steps)
		run := func(drive func(*System, []trace.Generator, uint64) error) Result {
			m, err := NewMulti(mc)
			if err != nil {
				t.Fatal(err)
			}
			installMultiPreds(t, m)
			if err := m.EnableAccuracyTracking(); err != nil {
				t.Fatal(err)
			}
			m.StartMeasurement()
			if err := drive(m, readers(bufs, nil), steps); err != nil {
				t.Fatal(err)
			}
			m.Finish()
			return m.Result()
		}
		a, b := run(runTenants), run(runTenants)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("runs of %dc×%dt q=%d u=%d %s diverged:\n  a=%+v\n  b=%+v",
				mc.Cores, mc.Tenants, mc.Quantum, mc.UnmapEvery, mc.Shootdown, a, b)
		}
		if ref := run(refMultiRun); !reflect.DeepEqual(a, ref) {
			t.Errorf("run of %dc×%dt q=%d u=%d %s diverged from the reference:\n  run=%+v\n  ref=%+v",
				mc.Cores, mc.Tenants, mc.Quantum, mc.UnmapEvery, mc.Shootdown, a, ref)
		}
		// A third run through fork must match too: fork at time zero is
		// construction-equivalent.
		m, err := NewMulti(mc)
		if err != nil {
			t.Fatal(err)
		}
		installMultiPreds(t, m)
		fk, err := m.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if err := fk.EnableAccuracyTracking(); err != nil {
			t.Fatal(err)
		}
		fk.StartMeasurement()
		if err := runTenants(fk, readers(bufs, nil), steps); err != nil {
			t.Fatal(err)
		}
		fk.Finish()
		if c := fk.Result(); !reflect.DeepEqual(a, c) {
			t.Errorf("forked run of %dc×%dt diverged from fresh runs:\n  fresh=%+v\n  fork=%+v",
				mc.Cores, mc.Tenants, a, c)
		}
	})
}
