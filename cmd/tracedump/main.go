// Command tracedump records synthetic workload traces to DPBF v2 files,
// converts older trace files to DPBF v2, and inspects trace files of any
// format. Recorded traces can be replayed through the simulator (deadsim
// -trace) or exported as CSV for external analysis.
//
// Usage:
//
//	tracedump -workload cc -n 1000000 -o cc.dpbf     # record
//	tracedump -convert cc.dptr -o cc.dpbf            # re-encode to v2
//	tracedump -dump cc.dpbf -n 20                    # peek at records
//	tracedump -dump cc.dpbf -csv > cc.csv            # export CSV
//	tracedump -summary cc.dpbf                       # whole-file statistics
//
// Every file tracedump writes is a DPBF v2 buffer dump: compressed,
// chunk-indexed columns that deadsim and the experiment runner stream
// without materializing. The older DPTR record stream and the raw DPBF v1
// layout are no longer written; an -o path ending in .dptr is refused.
//
// -convert, -dump and -summary read a trace in any format (DPTR, DPBF v1,
// DPBF v2). Converting an old file once, `tracedump -convert old.dptr -o
// new.dpbf`, lets it stream; reading old files stays supported.
//
// -summary reports per-PC-stream access counts, the read/write ratio and
// the unique-VPN footprint over the entire file. For DPBF v2 it first
// reports the chunk index — per-chunk compressed and raw columnar sizes and
// the overall compression ratio. A v2 file whose chunk index disagrees
// with its footer is rejected (trace.ErrChunkIndexMismatch).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "Table II workload to record")
		n        = flag.Uint64("n", 1_000_000, "records to record/dump")
		out      = flag.String("o", "", "output DPBF v2 trace file, named .dpbf (record/convert mode)")
		convert  = flag.String("convert", "", "trace file (any format) to re-encode to -o")
		dump     = flag.String("dump", "", "trace file (any format) to inspect")
		csv      = flag.Bool("csv", false, "dump as CSV instead of a summary")
		summary  = flag.String("summary", "", "trace file (any format) to summarize whole-file")
		seed     = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	if strings.HasSuffix(*out, ".dptr") {
		return fmt.Errorf("-o %s: DPTR is no longer written; tracedump writes DPBF v2, so name the output .dpbf "+
			"(existing DPTR files still read everywhere)", *out)
	}

	// SIGINT/SIGTERM cancel a long recording; the partially written file
	// stays on disk (its header names it) and the command exits nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	switch {
	case *workload != "" && *out != "":
		return record(ctx, *workload, *out, *n, *seed)
	case *convert != "" && *out != "":
		return reencode(*convert, *out)
	case *summary != "":
		return summarize(*summary)
	case *dump != "":
		return inspect(*dump, *n, *csv)
	default:
		flag.Usage()
		return fmt.Errorf("need either -workload with -o, -convert with -o, -dump, or -summary")
	}
}

func record(ctx context.Context, name, path string, n, seed uint64) error {
	w, err := trace.ByName(name)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Streamed chunk by chunk: memory stays bounded whatever -n is.
	if err := trace.RecordV2Context(ctx, f, w.New(seed), n); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses of %s to %s (%d bytes)\n", n, name, path, info.Size())
	return nil
}

// reencode reads a whole trace in any format and rewrites it to outPath as
// DPBF v2. The access sequence is preserved exactly, so a converted trace
// replays bit-identically to its source.
func reencode(inPath, outPath string) error {
	b, err := readTrace(inPath)
	if err != nil {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := b.WriteToV2(f); err != nil {
		return fmt.Errorf("%s: %w", outPath, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(outPath)
	if err != nil {
		return err
	}
	fmt.Printf("converted %d accesses of %q from %s to %s (%d bytes)\n",
		b.Len(), b.Name(), inPath, outPath, info.Size())
	return nil
}

// readTrace materializes a whole trace file of any format.
func readTrace(path string) (*trace.Buffer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := trace.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// inspect prints the first min(n, records) accesses of a trace — as CSV, or
// the first ten and a summary over all of them.
func inspect(path string, n uint64, csv bool) error {
	b, err := readTrace(path)
	if err != nil {
		return err
	}
	if b.Len() == 0 {
		return fmt.Errorf("%s: trace has no records", path)
	}
	n = min(n, b.Len())
	if csv {
		fmt.Println("pc,vaddr,gap,write,dependent")
	} else {
		fmt.Printf("trace %q\n", b.Name())
	}
	var (
		writes, deps uint64
		pages        = map[uint64]bool{}
		gaps         uint64
	)
	for i := uint64(0); i < n; i++ {
		a := b.At(i)
		if csv {
			fmt.Printf("%#x,%#x,%d,%t,%t\n", a.PC, uint64(a.Addr), a.Gap, a.Write, a.Dependent)
			continue
		}
		if i < 10 {
			fmt.Printf("  %3d: pc=%#x addr=%#x gap=%d write=%t dep=%t\n",
				i, a.PC, uint64(a.Addr), a.Gap, a.Write, a.Dependent)
		}
		if a.Write {
			writes++
		}
		if a.Dependent {
			deps++
		}
		pages[uint64(a.Addr.Page())] = true
		gaps += uint64(a.Gap)
	}
	if !csv {
		fmt.Printf("summary over %d records: %d distinct pages, %.1f%% writes, %.1f%% dependent, mean gap %.2f\n",
			n, len(pages), 100*float64(writes)/float64(n), 100*float64(deps)/float64(n),
			float64(gaps)/float64(n))
	}
	return nil
}

// summarizeChunks prints a DPBF v2 file's chunk index: per-chunk record
// counts and compressed payload sizes against the raw columnar equivalent
// (the 21 bytes/record a v1 dump would spend), and the overall compression
// ratio. It costs O(chunks) — the index comes from the footer, payloads
// are never inflated. Long indexes elide the middle chunks.
func summarizeChunks(ct *trace.ChunkedTrace, size int64) {
	const recBytes = 21 // 8 PC + 8 VA + 4 gap + 1 flags per record, the v1 column cost
	ratio := func(raw, comp uint64) float64 {
		if comp == 0 {
			return 0
		}
		return float64(raw) / float64(comp)
	}
	chunks := ct.Chunks()
	fmt.Printf("dpbf v2: %d chunks, file %d bytes\n", chunks, size)
	const headTail = 16 // chunks shown before eliding + the final chunk
	var comp, raw uint64
	for i := 0; i < chunks; i++ {
		encLen, rawN := ct.ChunkInfo(i)
		comp += uint64(encLen)
		raw += uint64(rawN) * recBytes
		if chunks > headTail+2 && i == headTail {
			fmt.Printf("  ... %d chunks elided ...\n", chunks-headTail-1)
		}
		if chunks <= headTail+2 || i < headTail || i == chunks-1 {
			cr := uint64(rawN) * recBytes
			fmt.Printf("  chunk %4d: %6d records, %7d bytes compressed, %8d raw (%.2fx)\n",
				i, rawN, encLen, cr, ratio(cr, uint64(encLen)))
		}
	}
	fmt.Printf("  payload total: %d bytes compressed, %d raw columnar, ratio %.2fx\n",
		comp, raw, ratio(raw, comp))
}

// streamShift groups PCs into instruction streams for the summary: the
// synthetic workloads lay each logical stream's PCs in its own 16 KiB
// region, so PC>>14 recovers the stream identity (and gives a coarse but
// stable grouping for externally recorded traces too).
const streamShift = 14

// summarize reads an entire trace file — any format — and prints
// per-stream access counts, the read/write split and the unique-VPN
// footprint. A file that opens as an indexed DPBF v2 trace gets its chunk
// index reported first; a v2 file whose index disagrees with its footer is
// rejected with trace.ErrChunkIndexMismatch. Other files — older formats,
// and any that OpenChunked cannot index — go straight to ReadTrace, which
// decodes the whole file and rejects it if it is corrupt.
func summarize(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	switch ct, err := trace.OpenChunked(f, info.Size()); {
	case err == nil:
		summarizeChunks(ct, info.Size())
	case errors.Is(err, trace.ErrChunkIndexMismatch):
		return fmt.Errorf("%s: %w", path, err)
	}
	b, err := trace.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	n := b.Len()
	fmt.Printf("trace %q: %d accesses\n", b.Name(), n)
	if n == 0 {
		return nil
	}

	var writes uint64
	streams := map[uint64]uint64{}
	vpns := map[uint64]struct{}{}
	for i := uint64(0); i < n; i++ {
		a := b.At(i)
		if a.Write {
			writes++
		}
		streams[a.PC>>streamShift]++
		vpns[uint64(a.Addr.Page())] = struct{}{}
	}

	reads := n - writes
	ratio := "inf"
	if writes > 0 {
		ratio = fmt.Sprintf("%.2f", float64(reads)/float64(writes))
	}
	fmt.Printf("reads         %d (%.1f%%)\n", reads, 100*float64(reads)/float64(n))
	fmt.Printf("writes        %d (%.1f%%)\n", writes, 100*float64(writes)/float64(n))
	fmt.Printf("r/w ratio     %s\n", ratio)
	fmt.Printf("unique VPNs   %d (%.1f MB footprint)\n", len(vpns),
		float64(len(vpns))*4096/(1<<20))

	ids := make([]uint64, 0, len(streams))
	for id := range streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if streams[ids[i]] != streams[ids[j]] {
			return streams[ids[i]] > streams[ids[j]]
		}
		return ids[i] < ids[j]
	})
	fmt.Printf("streams       %d (PC >> %d)\n", len(ids), streamShift)
	for _, id := range ids {
		c := streams[id]
		fmt.Printf("  stream %#6x: %9d accesses (%5.1f%%)\n",
			id, c, 100*float64(c)/float64(n))
	}
	return nil
}
