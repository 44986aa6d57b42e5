// Package ckpt provides the tiny error-latching binary codec the simulator's
// warm-state checkpoints are built from. Every value is little-endian and
// fixed-width; variable-length data is length-prefixed. Writer and Reader
// latch the first error and turn every subsequent call into a no-op, so
// component serializers compose without per-call error plumbing — callers
// check Err (or Flush) once at the end.
//
// Section marks (Mark/Expect) stamp labeled boundaries into the stream;
// a mismatch on decode pinpoints the first misaligned component instead of
// letting a framing bug smear garbage across everything that follows.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// maxString bounds length-prefixed strings on decode, so a corrupt length
// fails fast instead of attempting a huge allocation.
const maxString = 1 << 16

// Writer serializes primitives to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Failf latches a caller-detected error (e.g. unserializable state).
func (w *Writer) Failf(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.write([]byte{v}) }

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.write(w.buf[:2])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// F64 writes an IEEE-754 float64 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String writes a length-prefixed string (≤ maxString bytes).
func (w *Writer) String(s string) {
	if len(s) > maxString {
		w.Failf("ckpt: string of %d bytes exceeds the %d limit", len(s), maxString)
		return
	}
	w.U64(uint64(len(s)))
	w.write([]byte(s))
}

// Mark stamps a labeled section boundary; Reader.Expect verifies it.
func (w *Writer) Mark(label string) { w.String(label) }

// Binary writes v via encoding/binary (fixed-size values or slices of
// fixed-size values with exported fields only).
func (w *Writer) Binary(v any) {
	if w.err != nil {
		return
	}
	w.err = binary.Write(w.w, binary.LittleEndian, v)
}

// Err returns the latched error, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains the buffer and returns the latched or flush error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader deserializes primitives from an underlying stream.
type Reader struct {
	r       *bufio.Reader
	err     error
	buf     [8]byte
	version uint16
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (r *Reader) read(n int) []byte {
	if r.err != nil {
		return r.buf[:n]
	}
	if _, err := io.ReadFull(r.r, r.buf[:n]); err != nil {
		r.err = err
		return r.buf[:n]
	}
	return r.buf[:n]
}

// SetVersion records the format version the stream's header declared, so
// components whose layout changed between versions can branch on it.
func (r *Reader) SetVersion(v uint16) { r.version = v }

// Version returns the version SetVersion recorded; 0 means none was, and
// components read their current layout.
func (r *Reader) Version() uint16 { return r.version }

// Failf latches a caller-detected error (e.g. a verification mismatch).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.read(1)[0] }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.read(2)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.read(8)) }

// F64 reads an IEEE-754 float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a one-byte bool, rejecting values other than 0/1.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("ckpt: invalid bool byte %d", v)
		return false
	}
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U64()
	if r.err != nil {
		return ""
	}
	if n > maxString {
		r.Failf("ckpt: string length %d exceeds the %d limit", n, maxString)
		return ""
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.err = err
		return ""
	}
	return string(p)
}

// Expect reads a section mark and verifies it matches label.
func (r *Reader) Expect(label string) {
	got := r.String()
	if r.err == nil && got != label {
		r.Failf("ckpt: expected section %q, found %q (stream misaligned or stale)", label, got)
	}
}

// Binary reads into v via encoding/binary (pointer to a fixed-size value,
// or a pre-sized slice of fixed-size values with exported fields only).
func (r *Reader) Binary(v any) {
	if r.err != nil {
		return
	}
	r.err = binary.Read(r.r, binary.LittleEndian, v)
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }
