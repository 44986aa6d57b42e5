package ckpt

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRoundTrip writes one of every primitive and reads it back.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Mark("head")
	w.U8(0xab)
	w.U16(0xbeef)
	w.U64(^uint64(0))
	w.F64(3.25)
	w.Bool(true)
	w.Bool(false)
	w.String("hello")
	w.Binary([]uint32{1, 2, 3})
	w.Mark("tail")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Expect("head")
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U64(); got != ^uint64(0) {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bool(); got != true {
		t.Errorf("Bool = %v", got)
	}
	if got := r.Bool(); got != false {
		t.Errorf("Bool = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	var s [3]uint32
	r.Binary(&s)
	if s != [3]uint32{1, 2, 3} {
		t.Errorf("Binary = %v", s)
	}
	r.Expect("tail")
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestErrorLatching: the first error must stick and make every later call
// a no-op, so component codecs can run unchecked and report once.
func TestErrorLatching(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	_ = r.U64() // EOF latches
	first := r.Err()
	if first == nil {
		t.Fatal("no error latched on empty stream")
	}
	_ = r.U16()
	_ = r.String()
	r.Expect("x")
	if r.Err() != first {
		t.Errorf("latched error replaced: %v -> %v", first, r.Err())
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Failf("boom %d", 1)
	w.U64(7)
	w.Mark("m")
	if err := w.Flush(); err == nil || err.Error() != "boom 1" {
		t.Errorf("Flush = %v, want latched boom 1", err)
	}
	if buf.Len() != 0 {
		t.Errorf("writes after latched error reached the stream (%d bytes)", buf.Len())
	}
}

// TestGuards: malformed wire data must fail loudly, never allocate huge.
func TestGuards(t *testing.T) {
	t.Run("bad bool", func(t *testing.T) {
		r := NewReader(bytes.NewReader([]byte{7}))
		r.Bool()
		if r.Err() == nil {
			t.Error("bool byte 7 accepted")
		}
	})
	t.Run("string too long", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.U64(maxString + 1)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		_ = r.String()
		if r.Err() == nil {
			t.Error("oversized string length accepted")
		}
	})
	t.Run("writer rejects long string", func(t *testing.T) {
		w := NewWriter(io.Discard)
		w.String(strings.Repeat("x", maxString+1))
		if w.Err() == nil {
			t.Error("oversized string written")
		}
	})
	t.Run("mark mismatch", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Mark("alpha")
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		r.Expect("beta")
		if r.Err() == nil {
			t.Error("section mark mismatch accepted")
		}
	})
}
