package trace

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/arch"
)

// DPBF version 2: chunked, compressed columns.
//
// Version 1 stores the struct-of-arrays columns raw (21 bytes per access).
// Version 2 reorganizes the body into self-describing chunks of at most
// chunkLen accesses, each encoded columnar and compressed independently,
// with a chunk index in the footer so an io.ReaderAt can seek to, and
// decode, any chunk without touching the rest of the file. That is what
// lets multi-GB traces replay chunk-at-a-time through StreamReader (one
// chunk of reused buffers resident per consumer, workers decoding disjoint
// cursors in parallel) instead of materializing the whole buffer.
//
// Layout (all little-endian):
//
//	header:  magic "DPBF" | version u16 = 2 | flags u16 (bit0: chunk
//	         payloads are DEFLATE-compressed; bits 1..15 reserved, 0) |
//	         name len u16 | name | count u64 | chunkLen u32
//	chunk:   rawN u32 | encLen u32 | plainLen u32 | payload [encLen]u8
//	         (chunks are contiguous, the first starting right after the
//	         header; payload inflates to plainLen bytes of "plain" encoding)
//	footer:  index: chunkCount × { offset u64 | encLen u32 | rawN u32 } |
//	         trailer: indexOff u64 | chunkCount u32 | magic "DPB2"
//
// Plain chunk encoding, in stream order:
//
//	pcDict:  dictN u32 | dictN × pc u64     (distinct PCs, first-use order)
//	shift:   dictN × u8                     (per-entry VA delta shift, < 64)
//	pcIdx:   rawN × uvarint                 (index into pcDict)
//	va:      rawN × zigzag-varint of (delta >> shift[entry]), the delta
//	         taken against the previous VA decoded for the same pcDict
//	         entry in this chunk (first use: delta vs 0)
//	gap:     rawN × uvarint
//	flags:   ceil(rawN/4) bytes, 2 bits per access, LSB-first
//	         (bit0 FlagWrite, bit1 FlagDependent; unused trailing bits 0)
//
// The PC dictionary exploits the small per-workload instruction footprint
// (a few dozen sites per stream); the per-dict-entry VA delta context gives
// sequential and strided streams 1–2 byte deltas even when streams
// interleave, because a PC site almost always belongs to one stream. The
// per-entry shift strips the access-granularity alignment all of a site's
// deltas share (an 8-byte element stream never produces a delta with the
// low 3 bits set), which random-access streams cannot otherwise compress
// away. The per-chunk DEFLATE pass then squeezes the remaining byte-level
// redundancy (gap and index streams draw from tiny alphabets). Chunks
// share no state, so any chunk decodes independently given only the
// header.
const (
	bufferVersion2 = 2
	// v2ChunkLen is the writers' chunk granule. It matches ctxCheckStride,
	// so batched replay naturally checks cancellation once per chunk.
	v2ChunkLen = ctxCheckStride
	// v2MaxChunkLen bounds the chunkLen a reader accepts, capping what a
	// corrupt header can make the decoder allocate.
	v2MaxChunkLen = 1 << 20

	v2HeaderFlagFlate = 1 << 0

	v2TrailerMagic = "DPB2"
	v2ChunkHdrLen  = 12 // rawN u32 | encLen u32 | plainLen u32
	v2IndexEntry   = 16 // offset u64 | encLen u32 | rawN u32
	v2TrailerLen   = 16 // indexOff u64 | chunkCount u32 | magic
)

// ErrChunkIndexMismatch reports a DPBF v2 file whose chunk index is
// inconsistent with its footer trailer, header or chunk headers: wrong
// chunk count or record total, non-contiguous or out-of-bounds chunk
// extents, or a chunk header that disagrees with its index entry.
var ErrChunkIndexMismatch = errors.New("trace: dpbf v2 chunk index disagrees with footer")

// v2MaxPlainLen bounds the declared plain (inflated) size of a chunk: the
// worst-case plain encoding of rawN accesses, with every varint maximal.
func v2MaxPlainLen(chunkLen uint32) uint32 {
	// dictN + dict(8/rec) + shift(1/rec) + pcIdx(10/rec) + va(10/rec) +
	// gap(10/rec) + flags.
	return 4 + chunkLen*(8+1+10+10+10) + chunkLen/4 + 1
}

// --- Encoder -------------------------------------------------------------

// v2Encoder turns one chunk of columns into a compressed payload. All
// scratch is reused across chunks.
type v2Encoder struct {
	dict     map[uint64]uint32
	dictPCs  []uint64
	idx      []uint32
	lastVA   []uint64
	deltas   []int64
	orAcc    []uint64
	shifts   []uint8
	plain    []byte
	comp     bytes.Buffer
	zw       *flate.Writer
	compress bool
}

func newV2Encoder(compress bool) *v2Encoder {
	e := &v2Encoder{dict: make(map[uint64]uint32), compress: compress}
	if compress {
		// The default level, not BestSpeed: encoding happens once per
		// trace while decoding happens every replay, and the extra few
		// percent of ratio is what the >=4x gate is won with.
		e.zw, _ = flate.NewWriter(&e.comp, flate.DefaultCompression)
	}
	return e
}

// encode builds the compressed payload for one chunk, returning the payload
// (valid until the next encode call) and the plain (uncompressed) length.
func (e *v2Encoder) encode(pc, va []uint64, gap []uint32, flags []uint8) (payload []byte, plainLen uint32, err error) {
	n := len(pc)
	clear(e.dict)
	e.dictPCs = e.dictPCs[:0]
	e.idx = e.idx[:0]
	for _, p := range pc {
		id, ok := e.dict[p]
		if !ok {
			id = uint32(len(e.dictPCs))
			e.dict[p] = id
			e.dictPCs = append(e.dictPCs, p)
		}
		e.idx = append(e.idx, id)
	}

	// Pass 1: per-record deltas against the previous VA of the same dict
	// entry, and the OR of each entry's delta bit patterns — its trailing
	// zeros are the alignment every delta of that entry shares.
	dictN := len(e.dictPCs)
	if cap(e.lastVA) < dictN {
		e.lastVA = make([]uint64, dictN)
		e.orAcc = make([]uint64, dictN)
		e.shifts = make([]uint8, dictN)
	}
	last, orAcc, shifts := e.lastVA[:dictN], e.orAcc[:dictN], e.shifts[:dictN]
	for i := range last {
		last[i], orAcc[i] = 0, 0
	}
	if cap(e.deltas) < n {
		e.deltas = make([]int64, n)
	}
	deltas := e.deltas[:n]
	for i, v := range va {
		id := e.idx[i]
		d := int64(v - last[id]) // wrapping delta
		last[id] = v
		deltas[i] = d
		orAcc[id] |= uint64(d)
	}
	for i, or := range orAcc {
		if or == 0 {
			shifts[i] = 0
		} else {
			shifts[i] = uint8(bits.TrailingZeros64(or))
		}
	}

	out := e.plain[:0]
	out = binary.LittleEndian.AppendUint32(out, uint32(dictN))
	for _, p := range e.dictPCs {
		out = binary.LittleEndian.AppendUint64(out, p)
	}
	out = append(out, shifts...)
	for _, id := range e.idx {
		out = binary.AppendUvarint(out, uint64(id))
	}
	for i := range deltas {
		d := deltas[i] >> shifts[e.idx[i]] // exact: aligned by construction
		out = binary.AppendUvarint(out, uint64(d)<<1^uint64(d>>63))
	}
	for _, g := range gap {
		out = binary.AppendUvarint(out, uint64(g))
	}
	var fb uint8
	for i, f := range flags {
		if f&bufFlagReserved != 0 {
			return nil, 0, fmt.Errorf("trace: access %d: reserved flag bits %#x set", i, f&bufFlagReserved)
		}
		fb |= f << uint((i&3)*2)
		if i&3 == 3 {
			out = append(out, fb)
			fb = 0
		}
	}
	if n&3 != 0 {
		out = append(out, fb)
	}
	e.plain = out
	if !e.compress {
		return out, uint32(len(out)), nil
	}

	e.comp.Reset()
	e.zw.Reset(&e.comp)
	if _, err := e.zw.Write(out); err != nil {
		return nil, 0, fmt.Errorf("trace: compressing chunk: %w", err)
	}
	if err := e.zw.Close(); err != nil {
		return nil, 0, fmt.Errorf("trace: compressing chunk: %w", err)
	}
	return e.comp.Bytes(), uint32(len(out)), nil
}

// v2Writer streams a DPBF v2 file: header, chunks as they are delivered,
// then the index footer on finish.
type v2Writer struct {
	w     io.Writer
	off   int64 // bytes written so far
	err   error // first write error, latched
	enc   *v2Encoder
	index []byte // accumulated index entries
	n     uint32 // chunks written
	total uint64 // accesses written
	count uint64 // accesses promised in the header
}

func newV2Writer(w io.Writer, name string, count uint64, compress bool) (*v2Writer, error) {
	if len(name) > 1<<16-1 {
		return nil, fmt.Errorf("trace: buffer name too long (%d bytes)", len(name))
	}
	var headerFlags uint16
	if compress {
		headerFlags |= v2HeaderFlagFlate
	}
	hdr := binary.LittleEndian.AppendUint16([]byte(bufferMagic), bufferVersion2)
	hdr = binary.LittleEndian.AppendUint16(hdr, headerFlags)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, count)
	hdr = binary.LittleEndian.AppendUint32(hdr, v2ChunkLen)
	vw := &v2Writer{w: w, enc: newV2Encoder(compress), count: count}
	vw.put(hdr)
	return vw, nil
}

// put appends p to the file, latching the first write error.
func (vw *v2Writer) put(p []byte) {
	if vw.err != nil {
		return
	}
	n, err := vw.w.Write(p)
	vw.off += int64(n)
	vw.err = err
}

// writeChunk encodes and appends one chunk (at most v2ChunkLen accesses).
func (vw *v2Writer) writeChunk(pc, va []uint64, gap []uint32, flags []uint8) error {
	if len(pc) == 0 {
		return nil
	}
	offset := uint64(vw.off)
	payload, plainLen, err := vw.enc.encode(pc, va, gap, flags)
	if err != nil {
		return err
	}
	var hdr [v2ChunkHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(pc)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], plainLen)
	vw.put(hdr[:])
	vw.put(payload)
	vw.index = binary.LittleEndian.AppendUint64(vw.index, offset)
	vw.index = binary.LittleEndian.AppendUint32(vw.index, uint32(len(payload)))
	vw.index = binary.LittleEndian.AppendUint32(vw.index, uint32(len(pc)))
	vw.n++
	vw.total += uint64(len(pc))
	return vw.err
}

// finish writes the chunk index and trailer.
func (vw *v2Writer) finish() (int64, error) {
	if vw.err == nil && vw.total != vw.count {
		return vw.off, fmt.Errorf("trace: dpbf v2: wrote %d accesses, header promised %d", vw.total, vw.count)
	}
	footer := binary.LittleEndian.AppendUint64(vw.index, uint64(vw.off))
	footer = binary.LittleEndian.AppendUint32(footer, vw.n)
	vw.put(append(footer, v2TrailerMagic...))
	return vw.off, vw.err
}

// WriteToV2 serializes the buffer in the chunked, compressed v2 layout.
func (b *Buffer) WriteToV2(w io.Writer) (int64, error) {
	bw := newBufioIfNeeded(w)
	vw, err := newV2Writer(bw, b.name, b.Len(), true)
	if err != nil {
		return 0, err
	}
	for pos := 0; pos < len(b.pc); pos += v2ChunkLen {
		end := pos + v2ChunkLen
		if end > len(b.pc) {
			end = len(b.pc)
		}
		if err := vw.writeChunk(b.pc[pos:end], b.va[pos:end], b.gap[pos:end], b.flags[pos:end]); err != nil {
			return vw.off, err
		}
	}
	n, err := vw.finish()
	if err == nil {
		err = bw.Flush()
	}
	return n, err
}

// newBufioIfNeeded wraps w in a bufio.Writer unless it already is one.
func newBufioIfNeeded(w io.Writer) *flushWriter {
	return &flushWriter{w: w}
}

// flushWriter is a small buffered writer shim so WriteToV2/RecordV2 issue
// large writes without double-buffering an already-buffered destination.
type flushWriter struct {
	w   io.Writer
	buf []byte
}

func (f *flushWriter) Write(p []byte) (int, error) {
	if len(f.buf)+len(p) <= 1<<16 {
		f.buf = append(f.buf, p...)
		return len(p), nil
	}
	if err := f.Flush(); err != nil {
		return 0, err
	}
	if len(p) <= 1<<16 {
		f.buf = append(f.buf, p...)
		return len(p), nil
	}
	return f.w.Write(p)
}

func (f *flushWriter) Flush() error {
	if len(f.buf) == 0 {
		return nil
	}
	_, err := f.w.Write(f.buf)
	f.buf = f.buf[:0]
	return err
}

// RecordV2 captures n accesses from a generator into w in DPBF v2, staging
// one chunk at a time, so recording never materializes the whole trace.
func RecordV2(w io.Writer, g Generator, n uint64) error {
	return RecordV2Context(context.Background(), w, g, n)
}

// RecordV2Context is RecordV2 with cancellation, checked at chunk
// boundaries (the same ctxCheckStride granule as every drain loop).
func RecordV2Context(ctx context.Context, w io.Writer, g Generator, n uint64) error {
	bw := newBufioIfNeeded(w)
	vw, err := newV2Writer(bw, g.Name(), n, true)
	if err != nil {
		return err
	}
	var (
		pc    [v2ChunkLen]uint64
		va    [v2ChunkLen]uint64
		gap   [v2ChunkLen]uint32
		flags [v2ChunkLen]uint8
	)
	done := ctx.Done()
	for written := uint64(0); written < n; {
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("trace: recording %s canceled at record %d of %d: %w",
					g.Name(), written, n, ctx.Err())
			default:
			}
		}
		m := n - written
		if m > v2ChunkLen {
			m = v2ChunkLen
		}
		for i := uint64(0); i < m; i++ {
			a := g.Next()
			if err := GeneratorErr(g); err != nil {
				return fmt.Errorf("trace: recording %s: %w", g.Name(), err)
			}
			pc[i] = a.PC
			va[i] = uint64(a.Addr)
			gap[i] = a.Gap
			var f uint8
			if a.Write {
				f |= bufFlagWrite
			}
			if a.Dependent {
				f |= bufFlagDependent
			}
			flags[i] = f
		}
		if err := vw.writeChunk(pc[:m], va[:m], gap[:m], flags[:m]); err != nil {
			return err
		}
		written += m
	}
	if _, err := vw.finish(); err != nil {
		return err
	}
	return bw.Flush()
}

// --- Decoder -------------------------------------------------------------

// v2Header is the parsed fixed part of a v2 file.
type v2Header struct {
	name      string
	count     uint64
	chunkLen  uint32
	flate     bool
	headerLen int64
}

// readV2HeaderTail parses the header fields after magic|version|flags|
// nameLen (which the caller already consumed), validating the flags.
func readV2HeaderTail(r io.Reader, headerFlags uint16, nameLen int) (v2Header, error) {
	var h v2Header
	if headerFlags&^uint16(v2HeaderFlagFlate) != 0 {
		return h, fmt.Errorf("trace: reserved buffer header flags %#x set", headerFlags&^uint16(v2HeaderFlagFlate))
	}
	h.flate = headerFlags&v2HeaderFlagFlate != 0
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return h, fmt.Errorf("trace: reading buffer name: %w", err)
	}
	var tail [12]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return h, fmt.Errorf("trace: reading dpbf v2 header: %w", err)
	}
	h.name = string(name)
	h.count = binary.LittleEndian.Uint64(tail[0:])
	h.chunkLen = binary.LittleEndian.Uint32(tail[8:])
	h.headerLen = int64(10 + nameLen + 12)
	if h.chunkLen == 0 || h.chunkLen > v2MaxChunkLen {
		return h, fmt.Errorf("trace: dpbf v2 chunk length %d outside [1, %d]", h.chunkLen, v2MaxChunkLen)
	}
	return h, nil
}

// v2ChunkDecoder decodes chunk payloads into reused columnar buffers; a
// steady-state decode allocates nothing.
type v2ChunkDecoder struct {
	h      v2Header
	raw    []byte
	plain  []byte
	br     *bytes.Reader
	fr     io.ReadCloser
	dict   []uint64
	lastVA []uint64
	shifts []uint8
	idx    []uint32
	pc     []uint64
	va     []uint64
	gap    []uint32
	flags  []uint8
}

func newV2ChunkDecoder(h v2Header) *v2ChunkDecoder {
	d := &v2ChunkDecoder{h: h, br: bytes.NewReader(nil)}
	d.fr = flate.NewReader(d.br)
	return d
}

// grow ensures the columnar buffers hold n records.
func (d *v2ChunkDecoder) grow(n int) {
	if cap(d.pc) < n {
		d.pc = make([]uint64, n)
		d.va = make([]uint64, n)
		d.gap = make([]uint32, n)
		d.flags = make([]uint8, n)
		d.idx = make([]uint32, n)
	}
	d.pc, d.va = d.pc[:n], d.va[:n]
	d.gap, d.flags = d.gap[:n], d.flags[:n]
	d.idx = d.idx[:n]
}

// validateChunkHdr checks a chunk header against the file header's bounds.
func (d *v2ChunkDecoder) validateChunkHdr(chunk int, rawN, encLen, plainLen uint32) error {
	if rawN == 0 || rawN > d.h.chunkLen {
		return fmt.Errorf("trace: dpbf v2 chunk %d: record count %d outside [1, %d]", chunk, rawN, d.h.chunkLen)
	}
	maxPlain := v2MaxPlainLen(d.h.chunkLen)
	if plainLen < 4 || plainLen > maxPlain {
		return fmt.Errorf("trace: dpbf v2 chunk %d: plain length %d outside [4, %d]", chunk, plainLen, maxPlain)
	}
	if encLen == 0 || encLen > maxPlain+maxPlain/2+256 {
		return fmt.Errorf("trace: dpbf v2 chunk %d: payload length %d implausible", chunk, encLen)
	}
	return nil
}

// decode inflates and decodes the payload in d.raw into the columnar
// buffers d.pc/va/gap/flags (resized to rawN).
func (d *v2ChunkDecoder) decode(chunk int, rawN, plainLen uint32) error {
	n := int(rawN)
	d.grow(n)

	plain := d.raw
	if d.h.flate {
		if cap(d.plain) < int(plainLen) {
			d.plain = make([]byte, plainLen)
		}
		d.plain = d.plain[:plainLen]
		d.br.Reset(d.raw)
		if err := d.fr.(flate.Resetter).Reset(d.br, nil); err != nil {
			return fmt.Errorf("trace: dpbf v2 chunk %d: %w", chunk, err)
		}
		if _, err := io.ReadFull(d.fr, d.plain); err != nil {
			return fmt.Errorf("trace: dpbf v2 chunk %d: inflating payload: %w", chunk, err)
		}
		var one [1]byte
		if _, err := d.fr.Read(one[:]); err != io.EOF {
			return fmt.Errorf("trace: dpbf v2 chunk %d: payload inflates past its declared %d bytes", chunk, plainLen)
		}
		plain = d.plain
	} else if uint32(len(plain)) != plainLen {
		return fmt.Errorf("trace: dpbf v2 chunk %d: uncompressed payload length %d ≠ declared %d", chunk, len(plain), plainLen)
	}

	fail := func(format string, args ...any) error {
		return fmt.Errorf("trace: dpbf v2 chunk %d: "+format, append([]any{chunk}, args...)...)
	}
	if len(plain) < 4 {
		return fail("payload shorter than its dictionary header")
	}
	dictN := binary.LittleEndian.Uint32(plain)
	if dictN == 0 || dictN > rawN {
		return fail("pc dictionary size %d outside [1, %d]", dictN, rawN)
	}
	pos := 4
	if len(plain)-pos < int(dictN)*9 {
		return fail("truncated pc dictionary")
	}
	if cap(d.dict) < int(dictN) {
		d.dict = make([]uint64, dictN)
		d.lastVA = make([]uint64, dictN)
		d.shifts = make([]uint8, dictN)
	}
	d.dict = d.dict[:dictN]
	d.lastVA = d.lastVA[:dictN]
	d.shifts = d.shifts[:dictN]
	for i := range d.dict {
		d.dict[i] = binary.LittleEndian.Uint64(plain[pos:])
		d.lastVA[i] = 0
		pos += 8
	}
	for i := range d.shifts {
		s := plain[pos]
		if s > 63 {
			return fail("pc dictionary entry %d: va shift %d out of range", i, s)
		}
		d.shifts[i] = s
		pos++
	}
	for i := 0; i < n; i++ {
		id, sz := binary.Uvarint(plain[pos:])
		if sz <= 0 || id >= uint64(dictN) {
			return fail("access %d: bad pc index", i)
		}
		pos += sz
		d.idx[i] = uint32(id)
		d.pc[i] = d.dict[id]
	}
	for i := 0; i < n; i++ {
		uz, sz := binary.Uvarint(plain[pos:])
		if sz <= 0 {
			return fail("access %d: bad va delta", i)
		}
		pos += sz
		id := d.idx[i]
		delta := (int64(uz>>1) ^ -int64(uz&1)) << d.shifts[id]
		v := d.lastVA[id] + uint64(delta)
		d.lastVA[id] = v
		d.va[i] = v
	}
	for i := 0; i < n; i++ {
		g, sz := binary.Uvarint(plain[pos:])
		if sz <= 0 || g > uint64(^uint32(0)) {
			return fail("access %d: bad gap", i)
		}
		pos += sz
		d.gap[i] = uint32(g)
	}
	fbytes := (n + 3) / 4
	if len(plain)-pos < fbytes {
		return fail("truncated flags column")
	}
	for i := 0; i < n; i++ {
		d.flags[i] = plain[pos+i/4] >> uint((i&3)*2) & 3
	}
	if last := plain[pos+fbytes-1]; n&3 != 0 && last>>uint((n&3)*2) != 0 {
		return fail("nonzero padding bits in flags column")
	}
	pos += fbytes
	if pos != len(plain) {
		return fail("%d trailing payload bytes", len(plain)-pos)
	}
	return nil
}

// --- Random-access (io.ReaderAt) decode ----------------------------------

// v2IndexEntryT is one parsed chunk-index entry.
type v2IndexEntryT struct {
	offset uint64
	encLen uint32
	rawN   uint32
	// firstAccess is the cumulative record index of the chunk's first
	// access (derived, for position math).
	firstAccess uint64
}

// ChunkedTrace is a DPBF v2 file opened for random access: the header and
// chunk index are resident, chunk payloads are fetched and decoded on
// demand. It is immutable and safe for concurrent use; each StreamReader
// obtained from NewReader decodes independently, which is how parallel
// workers stream disjoint regions of one file concurrently.
type ChunkedTrace struct {
	r     io.ReaderAt
	h     v2Header
	index []v2IndexEntryT
}

// OpenChunked parses the header, trailer and chunk index of a DPBF v2 file
// of the given size, validating that the index tiles the file exactly and
// agrees with the header's record count. It reads only the header and
// footer — O(chunks), not O(records).
func OpenChunked(r io.ReaderAt, size int64) (*ChunkedTrace, error) {
	var pre [10]byte
	if _, err := r.ReadAt(pre[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading buffer header: %w", err)
	}
	if string(pre[:4]) != bufferMagic {
		return nil, fmt.Errorf("trace: bad buffer magic %q", pre[:4])
	}
	if v := binary.LittleEndian.Uint16(pre[4:]); v != bufferVersion2 {
		return nil, fmt.Errorf("trace: dpbf version %d is not chunk-indexed (v2); materialize it with ReadBuffer", v)
	}
	headerFlags := binary.LittleEndian.Uint16(pre[6:])
	nameLen := int(binary.LittleEndian.Uint16(pre[8:]))
	h, err := readV2HeaderTail(io.NewSectionReader(r, 10, int64(nameLen)+12), headerFlags, nameLen)
	if err != nil {
		return nil, err
	}

	if size < h.headerLen+v2TrailerLen {
		return nil, fmt.Errorf("trace: dpbf v2 file of %d bytes too short for header and trailer", size)
	}
	var trailer [v2TrailerLen]byte
	if _, err := r.ReadAt(trailer[:], size-v2TrailerLen); err != nil {
		return nil, fmt.Errorf("trace: dpbf v2 trailer: %w", err)
	}
	if string(trailer[12:16]) != v2TrailerMagic {
		return nil, fmt.Errorf("trace: dpbf v2 bad trailer magic %q", trailer[12:16])
	}
	indexOff := binary.LittleEndian.Uint64(trailer[0:])
	chunkCount := binary.LittleEndian.Uint32(trailer[8:])
	wantIndexEnd := uint64(size - v2TrailerLen)
	if indexOff < uint64(h.headerLen) || indexOff > wantIndexEnd ||
		wantIndexEnd-indexOff != uint64(chunkCount)*v2IndexEntry {
		return nil, fmt.Errorf("%w: trailer claims %d chunks with index at %d in a %d-byte file",
			ErrChunkIndexMismatch, chunkCount, indexOff, size)
	}

	raw := make([]byte, chunkCount*v2IndexEntry)
	if _, err := r.ReadAt(raw, int64(indexOff)); err != nil {
		return nil, fmt.Errorf("trace: dpbf v2 chunk index: %w", err)
	}
	t := &ChunkedTrace{r: r, h: h, index: make([]v2IndexEntryT, chunkCount)}
	next := uint64(h.headerLen)
	total := uint64(0)
	for i := range t.index {
		e := &t.index[i]
		e.offset = binary.LittleEndian.Uint64(raw[i*v2IndexEntry:])
		e.encLen = binary.LittleEndian.Uint32(raw[i*v2IndexEntry+8:])
		e.rawN = binary.LittleEndian.Uint32(raw[i*v2IndexEntry+12:])
		e.firstAccess = total
		if e.offset != next {
			return nil, fmt.Errorf("%w: chunk %d at offset %d, expected %d (chunks must tile the body)",
				ErrChunkIndexMismatch, i, e.offset, next)
		}
		if e.rawN == 0 || e.rawN > h.chunkLen {
			return nil, fmt.Errorf("%w: chunk %d record count %d outside [1, %d]",
				ErrChunkIndexMismatch, i, e.rawN, h.chunkLen)
		}
		next += v2ChunkHdrLen + uint64(e.encLen)
		total += uint64(e.rawN)
	}
	if next != indexOff {
		return nil, fmt.Errorf("%w: chunks end at %d, index starts at %d", ErrChunkIndexMismatch, next, indexOff)
	}
	if total != h.count {
		return nil, fmt.Errorf("%w: index holds %d records, header promises %d", ErrChunkIndexMismatch, total, h.count)
	}
	return t, nil
}

// Name returns the workload name carried in the header.
func (t *ChunkedTrace) Name() string { return t.h.name }

// Len returns the total number of accesses.
func (t *ChunkedTrace) Len() uint64 { return t.h.count }

// Chunks returns the chunk count.
func (t *ChunkedTrace) Chunks() int { return len(t.index) }

// ChunkInfo reports chunk i's payload size and record count (for tools).
func (t *ChunkedTrace) ChunkInfo(i int) (encLen, rawN uint32) {
	return t.index[i].encLen, t.index[i].rawN
}

// materialize decodes every chunk into a Buffer, growing it only as chunks
// actually decode, so a header count the payloads do not back allocates
// nothing.
func (t *ChunkedTrace) materialize() (*Buffer, error) {
	b := &Buffer{name: t.h.name}
	if t.h.count == 0 {
		return b, nil
	}
	sr := t.NewReader()
	for b.Len() < t.h.count {
		c, err := sr.NextChunk(int(t.h.chunkLen))
		if err != nil {
			return nil, err
		}
		b.pc = append(b.pc, c.PC...)
		b.va = append(b.va, c.VA...)
		b.gap = append(b.gap, c.Gap...)
		b.flags = append(b.flags, c.Flags...)
	}
	return b, nil
}

// NewReader returns a streaming cursor positioned at the first access. Each
// reader owns its decode buffers: concurrent readers decode chunks in
// parallel without shared state.
func (t *ChunkedTrace) NewReader() *StreamReader {
	return &StreamReader{t: t, dec: newV2ChunkDecoder(t.h), cur: -1}
}

// StreamReader replays a ChunkedTrace one decoded chunk at a time, holding
// exactly one chunk of reused buffers. It implements ChunkReader (and so
// Generator), wrapping at the end of the trace like BufferReader; read and
// decode errors latch (ErrGenerator) and Next then repeats the last good
// access.
type StreamReader struct {
	t    *ChunkedTrace
	dec  *v2ChunkDecoder
	hdr  [v2ChunkHdrLen]byte
	cur  int // chunk currently decoded (-1 before the first load)
	off  int // cursor within the decoded chunk
	n    int // decoded chunk length
	last Access
	err  error
}

// Err implements ErrGenerator.
func (r *StreamReader) Err() error { return r.err }

// Name implements Generator.
func (r *StreamReader) Name() string { return r.t.h.name }

// Pos returns the index of the next access to be returned.
func (r *StreamReader) Pos() uint64 {
	if r.cur < 0 {
		return 0
	}
	return r.t.index[r.cur].firstAccess + uint64(r.off)
}

// Fork implements ForkableGenerator: the new reader shares the trace,
// decodes its current chunk again through the chunk index into buffers of
// its own, and continues from the same position, independently. A latched
// error carries over.
func (r *StreamReader) Fork() Generator {
	f := r.t.NewReader()
	f.last, f.err = r.last, r.err
	if f.err == nil && r.cur >= 0 && f.load(r.cur) {
		f.off = r.off
	}
	return f
}

// load decodes chunk nxt (past the last: the first) into the reader's
// buffers. On failure the error latches and the cursor stays put.
func (r *StreamReader) load(nxt int) bool {
	if len(r.t.index) == 0 {
		r.err = errEmptyTrace
		return false
	}
	if nxt >= len(r.t.index) {
		nxt = 0
	}
	e := r.t.index[nxt]
	if _, err := r.t.r.ReadAt(r.hdr[:], int64(e.offset)); err != nil {
		r.err = fmt.Errorf("trace: dpbf v2 chunk %d header: %w", nxt, err)
		return false
	}
	rawN := binary.LittleEndian.Uint32(r.hdr[0:])
	encLen := binary.LittleEndian.Uint32(r.hdr[4:])
	plainLen := binary.LittleEndian.Uint32(r.hdr[8:])
	if rawN != e.rawN || encLen != e.encLen {
		r.err = fmt.Errorf("%w: chunk %d header says %d records in %d bytes, index says %d in %d",
			ErrChunkIndexMismatch, nxt, rawN, encLen, e.rawN, e.encLen)
		return false
	}
	if err := r.dec.validateChunkHdr(nxt, rawN, encLen, plainLen); err != nil {
		r.err = err
		return false
	}
	if cap(r.dec.raw) < int(encLen) {
		r.dec.raw = make([]byte, encLen)
	}
	r.dec.raw = r.dec.raw[:encLen]
	if _, err := r.t.r.ReadAt(r.dec.raw, int64(e.offset)+v2ChunkHdrLen); err != nil {
		r.err = fmt.Errorf("trace: dpbf v2 chunk %d payload: %w", nxt, err)
		return false
	}
	if err := r.dec.decode(nxt, rawN, plainLen); err != nil {
		r.err = err
		return false
	}
	r.cur, r.off, r.n = nxt, 0, int(rawN)
	return true
}

// Next implements Generator.
func (r *StreamReader) Next() Access {
	if r.err != nil {
		return r.last
	}
	if r.off >= r.n {
		if !r.load(r.cur + 1) {
			return r.last
		}
	}
	d, i := r.dec, r.off
	f := d.flags[i]
	r.last = Access{
		PC:        d.pc[i],
		Addr:      arch.VAddr(d.va[i]),
		Gap:       d.gap[i],
		Write:     f&bufFlagWrite != 0,
		Dependent: f&bufFlagDependent != 0,
	}
	r.off++
	return r.last
}

// NextChunk implements ChunkReader. The returned slices alias the reader's
// decode buffers and are valid until the next NextChunk/Next call.
func (r *StreamReader) NextChunk(max int) (Chunk, error) {
	if r.err != nil {
		return Chunk{}, r.err
	}
	if max <= 0 {
		return Chunk{}, nil
	}
	if r.off >= r.n {
		if !r.load(r.cur + 1) {
			return Chunk{}, r.err
		}
	}
	end := r.off + max
	if end > r.n {
		end = r.n
	}
	d := r.dec
	c := Chunk{
		PC:    d.pc[r.off:end],
		VA:    d.va[r.off:end],
		Gap:   d.gap[r.off:end],
		Flags: d.flags[r.off:end],
	}
	r.off = end
	return c, nil
}
