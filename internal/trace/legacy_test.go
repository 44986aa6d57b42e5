package trace

import (
	"encoding/binary"
	"io"

	"repro/internal/faultio"
)

// Test-only encoders for the two read-only formats. Nothing in the
// repository writes DPTR or DPBF v1 any more, but their readers stay, so
// the tests build inputs with these small reference encoders.

// encodeDPTR serializes b as a DPTR record stream.
func encodeDPTR(b *Buffer) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(traceMagic), traceVersion)
	out = binary.LittleEndian.AppendUint16(out, 0) // reserved flags
	out = binary.LittleEndian.AppendUint16(out, uint16(len(b.name)))
	out = append(out, b.name...)
	for i := range b.pc {
		out = binary.LittleEndian.AppendUint64(out, b.pc[i])
		out = binary.LittleEndian.AppendUint64(out, b.va[i])
		out = binary.LittleEndian.AppendUint32(out, b.gap[i])
		out = append(out, b.flags[i], 0, 0, 0)
	}
	return out
}

// encodeV1 serializes b in the DPBF v1 raw-column layout.
func encodeV1(b *Buffer) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(bufferMagic), bufferVersion)
	out = binary.LittleEndian.AppendUint16(out, 0) // reserved flags
	out = binary.LittleEndian.AppendUint16(out, uint16(len(b.name)))
	out = append(out, b.name...)
	out = binary.LittleEndian.AppendUint64(out, b.Len())
	for _, v := range b.pc {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	for _, v := range b.va {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	for _, v := range b.gap {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return append(out, b.flags...)
}

// bufferOf builds a buffer holding the given accesses.
func bufferOf(name string, accs ...Access) *Buffer {
	b := NewBuffer(name, len(accs))
	for _, a := range accs {
		b.Append(a)
	}
	return b
}

// failingReaderAt serves r, except that every read overlapping [lo, hi)
// fails with faultio.ErrInjected — a dying disk under one region of a file.
type failingReaderAt struct {
	r      io.ReaderAt
	lo, hi int64
}

func (f failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < f.hi && off+int64(len(p)) > f.lo {
		return 0, faultio.ErrInjected
	}
	return f.r.ReadAt(p, off)
}
