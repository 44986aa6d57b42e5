package exp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/trace"
)

// A workload's trace is a node of its grid's plan (planGrid): every cell
// holds an edge to it, the first reader materializes it, and the last
// reader's drop releases the runner's reference (Traces counts both).

// traceSrc is one workload's shared trace: exactly one of buf (in-memory
// materialized buffer) or ct (disk-backed DPBF v2 trace, the SetTraceDir
// mode, read from f) is set.
type traceSrc struct {
	buf *trace.Buffer
	ct  *trace.ChunkedTrace
	f   *os.File
}

// generator returns a fresh start-positioned cursor over the workload's
// trace, the value of the cell's trace node te. The node's first reader
// builds it (openTrace) while later readers wait, and every reader gets an
// independent cursor. In the default mode that is a BufferReader over an
// in-memory materialized buffer, valid while the cell holds te: the node's
// release returns the buffer's columns to the runner's pool (and any read
// after that panics). With SetTraceDir it is a
// StreamReader over a compressed DPBF v2 file, which the node closes when
// its last reader drops it. Either way the cursor implements
// trace.ChunkReader, so every run takes the batched columnar simulation
// path.
func (r *Runner) generator(ctx context.Context, w trace.Workload, te *edge) (trace.ForkableGenerator, error) {
	if te.claimed.CompareAndSwap(false, true) {
		te.computes = true
		te.publish(r.openTrace(ctx, w))
	}
	select {
	case <-te.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if te.err != nil {
		return nil, te.err
	}
	src := te.val.(traceSrc)
	if src.ct != nil {
		return src.ct.NewReader(), nil
	}
	return src.buf.Reader(), nil
}

// openTrace builds a trace node's value, covering warmup+measure: the
// workload's materialized buffer, or with SetTraceDir its DPBF v2 file,
// opened. A failure publishes no value, so nothing is released for it.
func (r *Runner) openTrace(ctx context.Context, w trace.Workload) (any, error) {
	var src traceSrc
	var err error
	if r.traceDir != "" {
		src, err = r.streamWorkload(ctx, w)
	} else {
		src.buf, err = trace.MaterializePooled(ctx, w.New(r.params.Seed), r.params.Warmup+r.params.Measure, r.pool)
	}
	if err != nil {
		return nil, err
	}
	if src.buf != nil && src.buf.Recycled() {
		r.storage.tracesReused.Add(1)
	}
	r.tracesMade.Add(1)
	return src, nil
}

// releaseTrace is a trace node's release: its last reader has dropped it,
// so a materialized buffer's columns go back to the runner's pool.
func (r *Runner) releaseTrace(v any) {
	if src := v.(traceSrc); src.f != nil {
		src.f.Close()
	} else {
		src.buf.Release()
	}
	r.tracesFreed.Add(1)
}

// streamWorkload records the workload's warmup+measure stream as a
// compressed DPBF v2 file under traceDir (or reuses an existing file whose
// name encodes the same workload, seed and length) and opens it for
// chunk-streamed random access. The write goes to a temp file renamed into
// place, so a crashed or canceled recording never leaves a truncated file
// that a later run would trust; the opened file stays open, shared by every
// StreamReader, until its trace node is released.
func (r *Runner) streamWorkload(ctx context.Context, w trace.Workload) (traceSrc, error) {
	n := r.params.Warmup + r.params.Measure
	path := filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d-n%d.dpbf", w.Name, r.params.Seed, n))
	f, err := os.Open(path)
	if err != nil {
		tmp, terr := os.CreateTemp(r.traceDir, w.Name+".*.tmp")
		if terr != nil {
			return traceSrc{}, fmt.Errorf("exp: recording %s: %w", w.Name, terr)
		}
		werr := trace.RecordV2Context(ctx, tmp, w.New(r.params.Seed), n)
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp.Name(), path)
		}
		if werr != nil {
			os.Remove(tmp.Name())
			return traceSrc{}, fmt.Errorf("exp: recording %s: %w", w.Name, werr)
		}
		if f, err = os.Open(path); err != nil {
			return traceSrc{}, fmt.Errorf("exp: recording %s: %w", w.Name, err)
		}
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return traceSrc{}, fmt.Errorf("exp: opening cached trace %s: %w", path, err)
	}
	ct, err := trace.OpenChunked(f, info.Size())
	if err != nil {
		f.Close()
		return traceSrc{}, fmt.Errorf("exp: opening cached trace %s: %w", path, err)
	}
	if ct.Len() != n || ct.Name() != w.Name {
		f.Close()
		return traceSrc{}, fmt.Errorf("exp: cached trace %s holds %d accesses of %q, want %d of %q; delete it to re-record",
			path, ct.Len(), ct.Name(), n, w.Name)
	}
	return traceSrc{ct: ct, f: f}, nil
}
