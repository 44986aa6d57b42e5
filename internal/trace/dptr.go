package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// DPTR trace file format: a fixed header followed by fixed-size
// little-endian records. It is the repository's original interchange
// format; nothing writes it any more (new traces are DPBF v2), but existing
// DPTR files read everywhere a trace file is accepted.
//
//	header:  magic "DPTR" | version u16 | flags u16 | name len u16 | name
//	record:  pc u64 | vaddr u64 | gap u32 | flags u8 (bit0 write,
//	         bit1 dependent, bits 2..7 reserved, 0) | pad [3]u8 (0)
const (
	traceMagic   = "DPTR"
	traceVersion = 1
	recordSize   = 8 + 8 + 4 + 1 + 3
)

// readTraceHeader consumes and validates a DPTR header, returning the
// workload name.
func readTraceHeader(br *bufio.Reader) (string, error) {
	var hdr [10]byte
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return "", fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(hdr[:4]) != traceMagic {
		return "", fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if _, err := io.ReadFull(br, hdr[4:]); err != nil {
		return "", fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != traceVersion {
		return "", fmt.Errorf("trace: unsupported version %d", v)
	}
	if fl := binary.LittleEndian.Uint16(hdr[6:]); fl != 0 {
		return "", fmt.Errorf("trace: reserved header flags %#x set", fl)
	}
	name := make([]byte, binary.LittleEndian.Uint16(hdr[8:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return "", fmt.Errorf("trace: reading name: %w", err)
	}
	return string(name), nil
}

// readTraceRecords drains a DPTR stream into a Buffer. The record count is
// not stored in the header, so the stream ends at clean EOF; a partial
// trailing record is corruption and errors out. A positive size (the
// stream's length in bytes) sizes the columns up front, so a large trace
// is allocated once at its final size instead of grown by appends.
func readTraceRecords(br *bufio.Reader, size int64) (*Buffer, error) {
	name, err := readTraceHeader(br)
	if err != nil {
		return nil, err
	}
	b := NewBuffer(name, int(max(size-int64(10+len(name)), 0)/recordSize))
	var rec [recordSize]byte
	for i := 0; ; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return b, nil
			}
			if err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("trace: record %d truncated (partial trailing record): %w", i, err)
			}
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		flags := rec[20]
		if flags&bufFlagReserved != 0 {
			return nil, fmt.Errorf("trace: record %d: reserved record flag bits %#x set", i, flags&bufFlagReserved)
		}
		if rec[21] != 0 || rec[22] != 0 || rec[23] != 0 {
			return nil, fmt.Errorf("trace: record %d: nonzero pad bytes % x", i, rec[21:24])
		}
		b.pc = append(b.pc, binary.LittleEndian.Uint64(rec[0:]))
		b.va = append(b.va, binary.LittleEndian.Uint64(rec[8:]))
		b.gap = append(b.gap, binary.LittleEndian.Uint32(rec[16:]))
		b.flags = append(b.flags, flags)
	}
}
