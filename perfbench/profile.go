package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile of the traced pass, bucketed by module, cross-checks the
// replayed ledger. The decoder below reads just enough of the pprof
// protobuf (profile.proto: samples, locations, functions, string table) to
// attribute each sample's CPU time to its leaf function — the flat profile
// `go tool pprof -top` prints — without a dependency outside the standard
// library.

// profileModules are the buckets profile_share.<module> reports, in print
// order. Anything else lands in "other".
var profileModules = []string{
	"cache", "tlb", "walker", "pagetable", "sim", "cpu", "core", "pred", "policy",
	"trace", "exp", "expserve", "stats", "perfbench", "gomap", "runtime", "other",
}

// reportedShares are the buckets reported as profile_share metrics: the
// ones a change to the simulator can move.
var reportedShares = []string{
	"cache", "tlb", "walker", "pagetable", "sim", "cpu", "core", "pred",
	"trace", "perfbench", "gomap", "runtime", "other",
}

// moduleOf buckets a fully qualified function name.
func moduleOf(fn string) string {
	const internal = "repro/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range profileModules {
			if m == rest {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/perfbench."):
		return "perfbench" // the taps themselves (named by import path in tests)
	case strings.HasPrefix(fn, "internal/runtime/maps."), strings.HasPrefix(fn, "runtime.map"):
		return "gomap" // the page table's and the runner's Go maps
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// flatShares decodes a gzipped CPU profile and returns each module's share
// of sampled CPU time.
func flatShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var strs []string
	funcName := map[uint64]int64{} // function id → string index
	locFunc := map[uint64]uint64{} // location id → leaf function id
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	err = pbFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					locs = pbUints(locs, v, data)
				case 2:
					for _, u := range pbUints(nil, v, data) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			samples = append(samples, sample{leaf: locs[0], value: vals[len(vals)-1]})
		case 4: // location
			var id, fn uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if fn == 0 {
						return pbFields(data, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	byModule := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		byModule[moduleOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	for m := range byModule {
		byModule[m] /= total
	}
	return byModule, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields calls fn for each field of a protobuf message: varints pass
// their value, length-delimited fields their bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field's values, packed or not.
func pbUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, u), data[n:]
	}
	return dst
}
