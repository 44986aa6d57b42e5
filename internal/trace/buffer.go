package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/pool"
)

// Buffer is a materialized access trace in struct-of-arrays form: one flat
// slice per Access field, so a million-access workload costs four slice
// headers and ~21 bytes per access instead of a million Access values
// behind an interface. The experiment runner materializes each workload's
// stream once and replays it read-only from every (workload, setup) cell
// and every worker, eliminating the per-cell regeneration cost (the RNG
// and math.Pow work of the synthetic generators).
//
// A Buffer is immutable from the time it is built until it is released;
// concurrent readers need no locking. Only a buffer materialized into a
// pool (MaterializePooled) is ever released: its owner returns the
// columns to the pool (Release) once no reader is left, and any read after
// that panics. The experiment runner's buffers are of that kind, valid
// while a cell holds an edge to the trace's plan node.
type Buffer struct {
	name  string
	pc    []uint64
	va    []uint64
	gap   []uint32
	flags []uint8

	// pool supplied the columns (nil: allocated); recycled reports that
	// they came from storage an earlier buffer released, and released that
	// this buffer's went back.
	pool     *pool.Pool
	recycled bool
	released bool
}

// Per-record flag bits of the packed flags byte. Bits 2..7 are reserved
// and must be zero on disk. FlagWrite and FlagDependent are exported so the
// simulator's batched access loop can decode a flags column without
// reconstructing Access values.
const (
	FlagWrite     uint8 = 1 << 0
	FlagDependent uint8 = 1 << 1

	bufFlagWrite     = FlagWrite
	bufFlagDependent = FlagDependent
	bufFlagReserved  = ^uint8(bufFlagWrite | bufFlagDependent)
)

// NewBuffer returns an empty buffer with capacity for n accesses.
func NewBuffer(name string, n int) *Buffer { return newBuffer(name, n, nil) }

// newBuffer returns an empty buffer whose columns, with room for n
// accesses, come from p.
func newBuffer(name string, n int, p *pool.Pool) *Buffer {
	b := &Buffer{name: name, pool: p}
	var ok [4]bool
	b.pc, ok[0] = column[uint64](p, n)
	b.va, ok[1] = column[uint64](p, n)
	b.gap, ok[2] = column[uint32](p, n)
	b.flags, ok[3] = column[uint8](p, n)
	b.recycled = ok == [4]bool{true, true, true, true}
	return b
}

// column returns an empty column with room for n records, recycled from p
// when it holds one (appends overwrite what its last owner left).
func column[T any](p *pool.Pool, n int) ([]T, bool) {
	if s, ok := pool.Take[T](p, n); ok {
		return s[:0], true
	}
	return make([]T, 0, n), false
}

// MaterializeContext drains n accesses from the generator into a new
// buffer. The buffer replays bit-identically to the live stream: it
// consumes the generator exactly as a simulation would. A source that
// latches an error mid-stream (ErrGenerator) fails the materialization
// rather than yielding a buffer padded with its repeated final access.
// The drain loop checks ctx on a coarse stride and stops with ctx's error
// when canceled.
func MaterializeContext(ctx context.Context, g Generator, n uint64) (*Buffer, error) {
	return MaterializePooled(ctx, g, n, nil)
}

// MaterializePooled is MaterializeContext into columns drawn from p. The
// caller owns the buffer and hands its columns back with Release once no
// reader is left; a failed materialization returns them itself.
func MaterializePooled(ctx context.Context, g Generator, n uint64, p *pool.Pool) (*Buffer, error) {
	b := newBuffer(g.Name(), int(n), p)
	done := ctx.Done()
	for i := uint64(0); i < n; i++ {
		if done != nil && i&(ctxCheckStride-1) == 0 {
			select {
			case <-done:
				b.Release()
				return nil, fmt.Errorf("trace: materializing %s canceled at access %d of %d: %w",
					g.Name(), i, n, ctx.Err())
			default:
			}
		}
		b.Append(g.Next())
	}
	if err := GeneratorErr(g); err != nil {
		b.Release()
		return nil, fmt.Errorf("trace: materializing %s: %w", g.Name(), err)
	}
	return b, nil
}

// Recycled reports whether the buffer's columns came from storage an
// earlier buffer of its pool released.
func (b *Buffer) Recycled() bool { return b.recycled }

// Release returns the buffer's columns to its pool (MaterializePooled) and
// marks it released: any later read of it, through a reader made before or
// after, panics. The caller must know no reader is left.
func (b *Buffer) Release() {
	pool.Put(b.pool, b.pc)
	pool.Put(b.pool, b.va)
	pool.Put(b.pool, b.gap)
	pool.Put(b.pool, b.flags)
	b.pc, b.va, b.gap, b.flags = nil, nil, nil, nil
	b.released = true
}

// Name returns the workload name carried with the buffer.
func (b *Buffer) Name() string { return b.name }

// Len returns the number of materialized accesses. Every read path asks
// it first, so it is where a released buffer panics.
func (b *Buffer) Len() uint64 {
	if b.released {
		panic("trace: read of released buffer " + b.name)
	}
	return uint64(len(b.pc))
}

// Append adds one access.
func (b *Buffer) Append(a Access) {
	var f uint8
	if a.Write {
		f |= bufFlagWrite
	}
	if a.Dependent {
		f |= bufFlagDependent
	}
	b.pc = append(b.pc, a.PC)
	b.va = append(b.va, uint64(a.Addr))
	b.gap = append(b.gap, a.Gap)
	b.flags = append(b.flags, f)
}

// At reconstructs the i-th access. i must be < Len().
func (b *Buffer) At(i uint64) Access {
	f := b.flags[i]
	return Access{
		PC:        b.pc[i],
		Addr:      arch.VAddr(b.va[i]),
		Gap:       b.gap[i],
		Write:     f&bufFlagWrite != 0,
		Dependent: f&bufFlagDependent != 0,
	}
}

// Reader returns a Generator view positioned at the start of the buffer.
func (b *Buffer) Reader() *BufferReader { return &BufferReader{buf: b} }

// BufferReader is a positioned Generator over a shared read-only Buffer.
// Forking a reader costs one small allocation, which is what lets a warmed
// simulation and its clones resume the same stream independently.
//
// BufferReader implements ErrGenerator: the buffer itself is immutable and
// cannot fail, but reading from an empty buffer latches errEmptyTrace so a
// drain loop over a degenerate buffer fails loudly instead of producing a
// stream of zero-valued accesses.
type BufferReader struct {
	buf *Buffer
	pos uint64
	err error
}

// Err implements ErrGenerator.
func (r *BufferReader) Err() error { return r.err }

// Name implements Generator.
func (r *BufferReader) Name() string { return r.buf.name }

// Pos returns the index of the next access to be returned.
func (r *BufferReader) Pos() uint64 { return r.pos }

// Next implements Generator. Past the end the reader wraps to the start;
// an empty buffer returns zero accesses.
func (r *BufferReader) Next() Access {
	if r.pos >= r.buf.Len() {
		if r.buf.Len() == 0 {
			r.err = errEmptyTrace
			return Access{}
		}
		r.pos = 0
	}
	a := r.buf.At(r.pos)
	r.pos++
	return a
}

// Fork implements ForkableGenerator: the new reader shares the buffer and
// continues from the same position, independently.
func (r *BufferReader) Fork() Generator {
	c := *r
	return &c
}

// Chunk is a columnar view of consecutive trace accesses: one parallel
// slice per Access field, in the Buffer's struct-of-arrays layout. The
// batched simulation loop consumes chunks directly, with no per-access
// Access reconstruction and no Generator interface call per record.
type Chunk struct {
	PC    []uint64
	VA    []uint64
	Gap   []uint32
	Flags []uint8 // FlagWrite | FlagDependent per record
}

// Len returns the number of accesses in the chunk.
func (c Chunk) Len() int { return len(c.PC) }

// ChunkReader is a Generator whose stream can also be drained in columnar
// chunks. BufferReader yields views straight into its shared Buffer;
// StreamReader (DPBF v2) decodes chunks on demand into reused buffers.
// Next and NextChunk advance the same cursor and may be interleaved.
type ChunkReader interface {
	ErrGenerator
	// NextChunk returns up to max consecutive accesses, advancing the
	// cursor, and wraps at the end of the stream like Next. It returns a
	// shorter (but non-empty) chunk at a wrap or chunk boundary; an empty
	// chunk means the source can produce no records, with the reason
	// latched on the generator (ErrGenerator) and also returned. The
	// returned slices are valid only until the next NextChunk/Next call.
	NextChunk(max int) (Chunk, error)
}

// NextChunk implements ChunkReader: the returned slices alias the shared
// immutable Buffer and stay valid until the buffer is released (Release),
// which its owner does only once no reader is left.
func (r *BufferReader) NextChunk(max int) (Chunk, error) {
	if max <= 0 {
		return Chunk{}, nil
	}
	n := r.buf.Len()
	if r.pos >= n {
		if n == 0 {
			r.err = errEmptyTrace
			return Chunk{}, r.err
		}
		r.pos = 0
	}
	end := r.pos + uint64(max)
	if end > n {
		end = n
	}
	c := Chunk{
		PC:    r.buf.pc[r.pos:end],
		VA:    r.buf.va[r.pos:end],
		Gap:   r.buf.gap[r.pos:end],
		Flags: r.buf.flags[r.pos:end],
	}
	r.pos = end
	return c, nil
}

// ForkableGenerator is a Generator whose position/state can be duplicated
// so two consumers continue the same stream independently. BufferReader
// forks by copying its cursor, StreamReader by re-decoding its current
// chunk, and the synthetic mix generators by deep-copying their RNG and
// per-stream offsets. The experiment runner's warm masters keep one, which
// every consumer forks.
type ForkableGenerator interface {
	Generator
	Fork() Generator
}

// --- Binary codec --------------------------------------------------------
//
// Buffer file format, version 1 (all little-endian):
//
//	header:  magic "DPBF" | version u16 | flags u16 (reserved, 0) |
//	         name len u16 | name | count u64
//	body:    pc [count]u64 | vaddr [count]u64 | gap [count]u32 |
//	         flags [count]u8 (bits 2..7 reserved, 0)
//
// The struct-of-arrays body mirrors the in-memory layout. Nothing writes v1
// any more; existing v1 files stay readable.
//
// Version 2 of the format (bufferv2.go) keeps the magic and the
// magic|version|flags|name prefix but replaces the raw columns with
// delta/varint-encoded, per-chunk-compressed columns plus a chunk index in
// the footer. It is the only format the repository writes. ReadBuffer
// dispatches on the version field, so both versions are accepted
// everywhere a DPBF file is.
const (
	bufferMagic   = "DPBF"
	bufferVersion = 1
	// bufferChunk bounds how many records a decoder materializes per read,
	// so a corrupt header claiming 2^60 records fails at EOF instead of
	// attempting a huge allocation.
	bufferChunk = 1 << 16
)

// ReadBuffer deserializes a DPBF buffer dump, v1 or v2 (WriteToV2),
// dispatching on the header's version field; a v2 stream is read whole and
// decoded through OpenChunked's index checks. Truncated, corrupt or
// future-versioned inputs return an error; they never panic and never
// allocate proportionally to an unvalidated count.
func ReadBuffer(r io.Reader) (*Buffer, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [4 + 2 + 2 + 2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading buffer header: %w", err)
	}
	if string(hdr[:4]) != bufferMagic {
		return nil, fmt.Errorf("trace: bad buffer magic %q", hdr[:4])
	}
	version := binary.LittleEndian.Uint16(hdr[4:])
	headerFlags := binary.LittleEndian.Uint16(hdr[6:])
	nameLen := int(binary.LittleEndian.Uint16(hdr[8:]))
	switch version {
	case bufferVersion:
	case bufferVersion2:
		// One v2 parser: the file is read whole and opened by index.
		data, err := io.ReadAll(io.MultiReader(bytes.NewReader(hdr[:]), br))
		if err != nil {
			return nil, fmt.Errorf("trace: reading dpbf v2: %w", err)
		}
		ct, err := OpenChunked(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return nil, err
		}
		return ct.materialize()
	default:
		return nil, fmt.Errorf("trace: unsupported buffer version %d", version)
	}
	if headerFlags != 0 {
		return nil, fmt.Errorf("trace: reserved buffer header flags %#x set", headerFlags)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading buffer name: %w", err)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: reading buffer count: %w", err)
	}
	count := binary.LittleEndian.Uint64(cnt[:])

	b := &Buffer{name: string(name)}
	var err error
	if b.pc, err = readU64s(br, count, "pc"); err != nil {
		return nil, err
	}
	if b.va, err = readU64s(br, count, "vaddr"); err != nil {
		return nil, err
	}
	if b.gap, err = readU32s(br, count); err != nil {
		return nil, err
	}
	if b.flags, err = readFlags(br, count); err != nil {
		return nil, err
	}
	return b, nil
}

// readU64s reads count little-endian u64s in bounded chunks.
func readU64s(r io.Reader, count uint64, field string) ([]uint64, error) {
	var out []uint64
	var raw [bufferChunk * 8]byte
	for got := uint64(0); got < count; {
		n := count - got
		if n > bufferChunk {
			n = bufferChunk
		}
		chunk := raw[:n*8]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("trace: reading buffer %s array: %w", field, err)
		}
		for i := uint64(0); i < n; i++ {
			out = append(out, binary.LittleEndian.Uint64(chunk[i*8:]))
		}
		got += n
	}
	return out, nil
}

// readU32s reads count little-endian u32s in bounded chunks.
func readU32s(r io.Reader, count uint64) ([]uint32, error) {
	var out []uint32
	var raw [bufferChunk * 4]byte
	for got := uint64(0); got < count; {
		n := count - got
		if n > bufferChunk {
			n = bufferChunk
		}
		chunk := raw[:n*4]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("trace: reading buffer gap array: %w", err)
		}
		for i := uint64(0); i < n; i++ {
			out = append(out, binary.LittleEndian.Uint32(chunk[i*4:]))
		}
		got += n
	}
	return out, nil
}

// readFlags reads count flag bytes in bounded chunks, rejecting reserved
// bits.
func readFlags(r io.Reader, count uint64) ([]uint8, error) {
	var out []uint8
	var raw [bufferChunk]byte
	for got := uint64(0); got < count; {
		n := count - got
		if n > bufferChunk {
			n = bufferChunk
		}
		chunk := raw[:n]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("trace: reading buffer flags array: %w", err)
		}
		for i, f := range chunk {
			if f&bufFlagReserved != 0 {
				return nil, fmt.Errorf("trace: record %d: reserved flag bits %#x set",
					got+uint64(i), f&bufFlagReserved)
			}
		}
		out = append(out, chunk...)
		got += n
	}
	return out, nil
}
