package pagetable

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/ckpt"
)

// encodeTable returns pt's checkpoint bytes.
func encodeTable(t *testing.T, pt *PageTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	pt.EncodeState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTripAndClone: a decoded table re-encodes byte for
// byte, translates like the original, and a clone is independent of it.
func TestCheckpointRoundTripAndClone(t *testing.T) {
	pt := newPT(t, 1<<20, AllocScrambled)
	vpns := []arch.VPN{0, 1, 511, 512, 1 << 18, 1<<27 + 3, 1<<35 - 1}
	for _, v := range vpns {
		if _, _, err := pt.Translate(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !pt.Unmap(1) {
		t.Fatal("Unmap(1) found no mapping")
	}
	raw := encodeTable(t, pt)

	back := newPT(t, 1<<20, AllocScrambled)
	if err := back.DecodeState(ckpt.NewReader(bytes.NewReader(raw))); err != nil {
		t.Fatal(err)
	}
	if got := encodeTable(t, back); !bytes.Equal(got, raw) {
		t.Fatal("decoded table re-encodes differently")
	}
	clone := back.Clone()
	for _, v := range vpns {
		want, okWant := pt.TranslateIfMapped(v)
		got, ok := back.TranslateIfMapped(v)
		if ok != okWant || got != want {
			t.Errorf("vpn %#x: decoded %d,%v; original %d,%v", v, got, ok, want, okWant)
		}
	}
	// Mapping a page in the clone leaves the decoded table untouched.
	if _, _, err := clone.Translate(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := back.TranslateIfMapped(1); ok {
		t.Error("a translation in the clone appeared in its source")
	}
}

// TestCheckpointRejectsMalformedNodes: a node entry index past the
// 512-entry node, or a node whose shape does not match its level, is a
// decode error, not a panic or a silent drop.
func TestCheckpointRejectsMalformedNodes(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		write      func(w *ckpt.Writer)
	}{
		{"child", "index", func(w *ckpt.Writer) {
			w.U64(7)     // root frame
			w.Bool(true) // children
			w.U64(1)
			w.U64(fanout) // index past the node
		}},
		{"leaf", "index", func(w *ckpt.Writer) {
			w.U64(7)
			w.Bool(true)
			w.U64(1)
			w.U64(0)
			for level := 1; level < arch.RadixLevels-1; level++ {
				w.U64(uint64(8 + level))
				w.Bool(true)
				w.U64(1)
				w.U64(0)
			}
			w.U64(20)     // PT-level node frame
			w.Bool(false) // no children
			w.Bool(true)  // leaves
			w.U64(1)
			w.U64(fanout + 3)
			w.U64(42)
		}},
		{"shape", "shape", func(w *ckpt.Writer) {
			w.U64(7)      // root frame
			w.Bool(false) // an interior node without children
			w.Bool(true)
			w.U64(0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := ckpt.NewWriter(&buf)
			w.Mark("pagetable")
			for _, v := range []uint64{uint64(AllocScrambled), 30, 1, 1 << 20, 1, 4} {
				w.U64(v)
			}
			tc.write(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			pt := newPT(t, 1<<20, AllocScrambled)
			err := pt.DecodeState(ckpt.NewReader(&buf))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeState = %v, want a %s error", err, tc.want)
			}
		})
	}
}
