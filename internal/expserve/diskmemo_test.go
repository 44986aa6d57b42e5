package expserve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// memoKey builds a syntactically valid (64 hex chars) cell key from one
// byte, for tests that never involve a real simulation.
func memoKey(b byte) string { return strings.Repeat(fmt.Sprintf("%02x", b), 32) }

func memoResult() sim.Result {
	return sim.Result{
		Instructions: 12_345,
		Cycles:       67_890.25, // fractional: proves float64 survives the JSON round trip
		IPC:          0.1818244215930645,
		MemAccesses:  4_242,
		PWCHits:      [3]uint64{7, 11, 13},
	}
}

func memoMeta() exp.CellMeta {
	return exp.CellMeta{Workload: "cc", Setup: "baseline", Params: exp.Params{Warmup: 1, Measure: 2, Seed: 3, SampleEvery: 4}}
}

func TestDiskMemoRoundTrip(t *testing.T) {
	m, err := OpenDiskMemo(filepath.Join(t.TempDir(), "memo"))
	if err != nil {
		t.Fatal(err)
	}
	key := memoKey(0xaa)
	if _, ok, err := m.Get(key); err != nil || ok {
		t.Fatalf("empty memo: ok=%v err=%v", ok, err)
	}
	want := memoResult()
	if err := m.Put(key, memoMeta(), want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := m.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-tripped result diverges:\n got %+v\nwant %+v", got, want)
	}
	meta, ok := m.Meta(key)
	if !ok || meta != memoMeta() {
		t.Fatalf("Meta: ok=%v meta=%+v", ok, meta)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	// A second Put of the same key (the deterministic-duplicate case) is
	// success, and no temp debris survives.
	if err := m.Put(key, memoMeta(), want); err != nil {
		t.Fatalf("duplicate Put: %v", err)
	}
	ents, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !validKey(e.Name()) {
			t.Fatalf("memo root holds non-entry debris %q", e.Name())
		}
	}
}

func TestDiskMemoArtifacts(t *testing.T) {
	m, err := OpenDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := memoKey(0x01)
	trace := []byte("pretend this is a DPBF v2 trace")
	err = m.PutWithArtifacts(key, memoMeta(), memoResult(), []Artifact{{Name: "trace.dpbf", Data: trace}})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.Artifact(key, "trace.dpbf")
	if !ok || string(got) != string(trace) {
		t.Fatalf("artifact round trip: ok=%v data=%q", ok, got)
	}
	if _, ok := m.Artifact(key, "absent.dpck"); ok {
		t.Fatal("Artifact served a payload the manifest never listed")
	}
	// A corrupted artifact must be refused (hash mismatch), while the
	// result itself stays servable.
	if err := os.WriteFile(filepath.Join(m.Dir(), key, "trace.dpbf"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Artifact(key, "trace.dpbf"); ok {
		t.Fatal("Artifact served hash-mismatched bytes")
	}
	if _, ok, err := m.Get(key); err != nil || !ok {
		t.Fatalf("result should survive artifact corruption: ok=%v err=%v", ok, err)
	}
	// Reserved and path-escaping artifact names are rejected outright.
	for _, name := range []string{"result.json", "manifest.json", "../escape"} {
		if err := m.PutWithArtifacts(memoKey(0x02), memoMeta(), memoResult(), []Artifact{{Name: name}}); err == nil {
			t.Fatalf("artifact name %q accepted", name)
		}
	}
}

// TestDiskMemoRejectsDamage is the corruption matrix: every defect class
// reads as a miss, evicts the entry (counted), and a fresh Put lands
// cleanly.
func TestDiskMemoRejectsDamage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string) // dir is the entry directory
	}{
		{"truncated-result", func(t *testing.T, dir string) {
			truncateFile(t, filepath.Join(dir, "result.json"))
		}},
		{"corrupt-result-bytes", func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, "result.json"))
		}},
		{"truncated-manifest", func(t *testing.T, dir string) {
			truncateFile(t, filepath.Join(dir, "manifest.json"))
		}},
		{"missing-result", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "result.json")); err != nil {
				t.Fatal(err)
			}
		}},
		{"foreign-key-manifest", func(t *testing.T, dir string) {
			// An entry copied under the wrong key: manifest names another.
			src := filepath.Join(filepath.Dir(dir), memoKey(0xcc), "manifest.json")
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := OpenDiskMemo(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key, other := memoKey(0xab), memoKey(0xcc)
			if err := m.Put(key, memoMeta(), memoResult()); err != nil {
				t.Fatal(err)
			}
			if err := m.Put(other, memoMeta(), memoResult()); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, filepath.Join(m.Dir(), key))
			if _, ok, err := m.Get(key); err != nil || ok {
				t.Fatalf("damaged entry served: ok=%v err=%v", ok, err)
			}
			if _, err := os.Stat(filepath.Join(m.Dir(), key)); !os.IsNotExist(err) {
				t.Fatalf("damaged entry not evicted (stat err %v)", err)
			}
			// The neighbor entry is untouched, and the key is reusable.
			if _, ok, err := m.Get(other); err != nil || !ok {
				t.Fatalf("eviction damaged a healthy neighbor: ok=%v err=%v", ok, err)
			}
			if err := m.Put(key, memoMeta(), memoResult()); err != nil {
				t.Fatalf("re-Put after eviction: %v", err)
			}
			if _, ok, err := m.Get(key); err != nil || !ok {
				t.Fatalf("recomputed entry unreadable: ok=%v err=%v", ok, err)
			}
			// The damaged read is one miss and one eviction, never silent.
			if st := m.Stats(); st != (MemoStats{Hits: 2, Misses: 1, Evictions: 1}) {
				t.Fatalf("memo counters = %+v, want 2 hits, 1 miss, 1 eviction", st)
			}
		})
	}
}

func TestDiskMemoRejectsMalformedKeys(t *testing.T) {
	m, err := OpenDiskMemo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", strings.Repeat("z", 64), "../" + memoKey(1)[3:]} {
		if _, _, err := m.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a malformed key", key)
		}
		if err := m.Put(key, memoMeta(), memoResult()); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
	}
}

func truncateFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
