package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The CPU profile is decoded here rather than with google/pprof, whose
// parser is vendored only inside GOROOT: a profile is a gzipped protobuf
// and only samples, locations and functions are needed.

// profSample is one sampled stack, leaf first, with its sample count.
type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	count int64
}

// decodeProfile parses a runtime/pprof CPU profile.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string table index
	var strs []string
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					s.vals = appendUints(s.vals, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling f with each field's number
// and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pkgOf returns the import path of a function's package.
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a package to the benchmark's layer name, or "" for code
// outside this repository.
func layerOf(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "repro/")
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "internal/")
	switch {
	case strings.HasPrefix(rest, "sim"):
		return "sim"
	case strings.HasPrefix(rest, "trace"):
		return "trace"
	case rest == "clusterfs":
		return "clusteros"
	}
	return rest
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// gcOrAlloc marks runtime frames that belong to the allocator or the
// garbage collector.
var gcOrAlloc = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.memclrNoHeapPointers", "runtime.gcBgMarkWorker", "runtime.gcDrain",
	"runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
}

// bucketProfile attributes every sample to one bucket and returns each
// bucket's share in percent. A sample whose leaf is repository code goes
// to that code's layer. A runtime leaf goes to "runtime_other" when the
// allocator or collector is on the stack; otherwise to "switch" when the
// nearest repository frame is the engine or there is none (goroutine
// handoff and the Go scheduler); otherwise to the nearest repository
// frame's layer. Other standard-library leaves go to the nearest
// repository frame's layer.
func bucketProfile(samples []profSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.count
		counts[bucketOf(s.stack)] += s.count
	}
	out := map[string]float64{}
	for k, n := range counts {
		out[k] = 100 * float64(n) / float64(total)
	}
	return out, total
}

func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if l := layerOf(pkgOf(stack[0])); l != "" {
		return l
	}
	nearest := ""
	for _, fn := range stack {
		if nearest = layerOf(pkgOf(fn)); nearest != "" {
			break
		}
	}
	if isRuntime(pkgOf(stack[0])) {
		for _, fn := range stack {
			for _, g := range gcOrAlloc {
				if strings.HasPrefix(fn, g) {
					return "runtime_other"
				}
			}
		}
		if nearest == "" || nearest == "sim" {
			return "switch"
		}
	}
	if nearest == "" {
		return "other"
	}
	return nearest
}

// profileMetrics maps profile buckets to per-layer metric names.
func profileMetrics(buckets map[string]float64) map[string]float64 {
	return map[string]float64{
		"sim.prof.switch_pct":         buckets["switch"],
		"sim.prof.sched_pct":          buckets["sim"],
		"core.prof.pct":               buckets["core"],
		"memchannel.prof.pct":         buckets["memchannel"],
		"isa.prof.pct":                buckets["isa"],
		"rewriter.prof.pct":           buckets["rewriter"],
		"oracledb.prof.pct":           buckets["oracledb"],
		"clusteros.prof.pct":          buckets["clusteros"],
		"host.prof.runtime_other_pct": buckets["runtime_other"],
	}
}

func sortedBuckets(b map[string]float64) []string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return b[keys[i]] > b[keys[j]] || (b[keys[i]] == b[keys[j]] && keys[i] < keys[j]) })
	return keys
}
