package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// format is a trace file's on-disk format, as sniff classifies it.
type format uint8

const (
	formatDPTR   format = iota // DPTR record stream
	formatDPBF                 // DPBF other than v2; ReadBuffer checks the version
	formatDPBFv2               // chunk-indexed DPBF v2, streamable
)

// sniff classifies a trace file by its first bytes (up to six: the magic
// and, for DPBF, the version). It is the one place that tells the formats
// apart. readErr is the error that cut head short, if any.
func sniff(head []byte, readErr error) (format, error) {
	if len(head) < 4 {
		return 0, fmt.Errorf("trace: sniffing magic: %w", readErr)
	}
	switch string(head[:4]) {
	case traceMagic:
		return formatDPTR, nil
	case bufferMagic:
		if len(head) >= 6 && binary.LittleEndian.Uint16(head[4:]) == bufferVersion2 {
			return formatDPBFv2, nil
		}
		return formatDPBF, nil
	}
	return 0, fmt.Errorf("trace: unrecognized magic %q (want %q or %q)",
		head[:4], traceMagic, bufferMagic)
}

// ReadTrace materializes a trace file of any format into a Buffer: DPTR
// record streams, DPBF v1 raw columns and DPBF v2 chunked columns. Tools
// that analyze traces can accept any of them without caring which one
// they were handed.
func ReadTrace(r io.Reader) (*Buffer, error) { return readTrace(r, 0) }

// readTrace is ReadTrace for a source of size bytes (0 if unknown).
func readTrace(r io.Reader, size int64) (*Buffer, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(6)
	f, err := sniff(head, err)
	if err != nil {
		return nil, err
	}
	if f == formatDPTR {
		return readTraceRecords(br, size)
	}
	return ReadBuffer(br)
}

// Open opens a trace file of size bytes, in any format, for replay and
// returns a reader that wraps at the end of the trace. A DPBF v2 file streams chunk by chunk
// through OpenChunked, so it is never held in memory whole; DPTR and DPBF
// v1 files are materialized by ReadTrace (21 bytes per access) and replay
// from the Buffer. Converting a large DPTR or v1 file to v2 once (cmd/
// tracedump -convert) makes it stream.
func Open(r io.ReaderAt, size int64) (ChunkReader, error) {
	var head [6]byte
	n, err := r.ReadAt(head[:], 0)
	f, err := sniff(head[:n], err)
	if err != nil {
		return nil, err
	}
	if f == formatDPBFv2 {
		ct, err := OpenChunked(r, size)
		if err != nil {
			return nil, err
		}
		return ct.NewReader(), nil
	}
	b, err := readTrace(io.NewSectionReader(r, 0, size), size)
	if err != nil {
		return nil, err
	}
	return b.Reader(), nil
}
