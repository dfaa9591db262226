package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the gzipped protocol-buffer profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), kept in-process so the
// benchmark needs no module beyond the standard library. It reads only what
// layer attribution needs: sample values, each sample's stack and the
// function names behind it.

// Field numbers from profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fValueTypeType      = 1
	fSampleLocationID   = 1
	fSampleValue        = 2
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunctionID     = 1
	fFunctionID         = 1
	fFunctionName       = 2
)

// cpuSample is one sample of a decoded CPU profile: its stack as function
// names (innermost first, inlined calls expanded) and its CPU time.
type cpuSample struct {
	stack []string
	nanos int64
}

// pbField is one decoded protobuf field: a varint value, or the bytes of a
// length-delimited field.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.value, n, err = pbVarint(b); err != nil {
				return nil, err
			}
		case 1:
			n = 8
		case 5:
			n = 4
		case 2:
			l, m, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			if uint64(len(b)-m) < l {
				return nil, errTruncated
			}
			f.bytes = b[m : m+int(l)]
			n = m + int(l)
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if len(b) < n {
			return nil, errTruncated
		}
		b = b[n:]
		out = append(out, f)
	}
	return out, nil
}

// uints returns a repeated integer field's values, whether it was written
// packed (one length-delimited field) or as one varint per value.
func (f pbField) uints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a gzipped runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs        []string
		sampleTypes []int64
		rawSamples  [][]byte
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> string index
	)
	for _, f := range fields {
		switch f.num {
		case fProfileStringTable:
			strs = append(strs, string(f.bytes))
		case fProfileSampleType:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			for _, s := range sub {
				if s.num == fValueTypeType {
					sampleTypes = append(sampleTypes, int64(s.value))
				}
			}
		case fProfileSample:
			rawSamples = append(rawSamples, f.bytes)
		case fProfileLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case fLocationID:
					id = s.value
				case fLocationLine:
					line, err := pbFields(s.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == fLineFunctionID {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locLines[id] = fns
		case fProfileFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, s := range sub {
				switch s.num {
				case fFunctionID:
					id = s.value
				case fFunctionName:
					name = int64(s.value)
				}
			}
			funcName[id] = name
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type (not a CPU profile)")
	}
	var samples []cpuSample
	for _, rs := range rawSamples {
		sub, err := pbFields(rs)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, s := range sub {
			if s.num != fSampleLocationID && s.num != fSampleValue {
				continue // labels
			}
			v, err := s.uints()
			if err != nil {
				return nil, err
			}
			if s.num == fSampleLocationID {
				locs = append(locs, v...)
			} else {
				vals = append(vals, v...)
			}
		}
		if cpu >= len(vals) {
			return nil, errors.New("profile: sample lacks its cpu value")
		}
		var stack []string
		for _, l := range locs {
			for _, fn := range locLines[l] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		samples = append(samples, cpuSample{stack: stack, nanos: int64(vals[cpu])})
	}
	return samples, nil
}

// Layers of the simulator, named after its packages. The root package ccsim
// is the thin public wrapper around internal/machine, so it counts as
// machine; syncprim and memsys are the home controller's lock state machines
// and address geometry, so they count as core.
var layerOfPackage = map[string]string{
	"ccsim":                    "machine",
	"ccsim/internal/machine":   "machine",
	"ccsim/internal/sim":       "sim",
	"ccsim/internal/core":      "core",
	"ccsim/internal/syncprim":  "core",
	"ccsim/internal/memsys":    "core",
	"ccsim/internal/cache":     "cache",
	"ccsim/internal/network":   "network",
	"ccsim/internal/proc":      "proc",
	"ccsim/internal/workload":  "workload",
	"ccsim/internal/fault":     "fault",
	"ccsim/internal/stats":     "stats",
	"ccsim/internal/telemetry": "telemetry",
	"ccsim/internal/check":     "check",
	"ccsim/internal/trace":     "trace",
	"ccsim/exp":                "exp",
	"ccsim/internal/store":     "store",
	"main":                     "bench",
}

// Runtime buckets for frames of package runtime (and the swiss-map
// implementation under internal/runtime/maps).
const (
	rtMalloc = "runtime.malloc"
	rtGC     = "runtime.gc"
	rtMap    = "runtime.map"
	rtOther  = "runtime.other"
)

// funcPackage returns the import path of the package defining the function
// named fn ("ccsim/internal/core.(*CacheCtl).read" -> "ccsim/internal/core").
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may name other packages
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// runtimeBucket classifies one runtime frame, or returns "" when fn is not a
// runtime frame.
func runtimeBucket(fn string) string {
	pkg := funcPackage(fn)
	if pkg == "internal/runtime/maps" {
		return rtMap
	}
	if pkg != "runtime" {
		return ""
	}
	name := strings.TrimPrefix(fn, "runtime.")
	switch {
	case strings.HasPrefix(name, "gc"), strings.HasPrefix(name, "scan"),
		strings.HasPrefix(name, "mark"), strings.HasPrefix(name, "bgsweep"),
		strings.HasPrefix(name, "sweepone"), strings.HasPrefix(name, "(*mspan).sweep"),
		strings.HasPrefix(name, "(*gcWork)"), strings.HasPrefix(name, "wbBuf"),
		strings.HasPrefix(name, "bgscavenge"), name == "GC", name == "greyobject",
		name == "findObject", name == "bulkBarrierPreWrite":
		return rtGC
	case strings.HasPrefix(name, "mallocgc"), name == "newobject",
		strings.HasPrefix(name, "makeslice"), name == "growslice",
		strings.HasPrefix(name, "makemap"), name == "newarray",
		strings.HasPrefix(name, "rawstring"), strings.HasPrefix(name, "rawbyteslice"):
		return rtMalloc
	case strings.HasPrefix(name, "map"):
		return rtMap
	}
	return rtOther
}

// layerOf charges one sample's stack (innermost frame first) to a layer. The
// runtime frames above the innermost simulator frame decide first: any
// garbage-collector frame makes the sample runtime.gc, else any allocator
// frame runtime.malloc, else any map frame runtime.map, else a runtime leaf
// makes it runtime.other. Otherwise the sample belongs to the innermost frame
// of a simulator package, so standard-library work (sorting, encoding, file
// I/O) counts for the layer that asked for it. A stack with neither a
// simulator frame nor a runtime frame is "other".
func layerOf(stack []string) string {
	var seen [4]bool // gc, malloc, map, other-leaf
	for i, fn := range stack {
		if l, ok := layerOfPackage[funcPackage(fn)]; ok {
			if b := pickRuntime(seen); b != "" {
				return b
			}
			return l
		}
		switch runtimeBucket(fn) {
		case rtGC:
			seen[0] = true
		case rtMalloc:
			seen[1] = true
		case rtMap:
			seen[2] = true
		case rtOther:
			seen[3] = seen[3] || i == 0
		}
	}
	if b := pickRuntime(seen); b != "" {
		return b
	}
	return "other"
}

func pickRuntime(seen [4]bool) string {
	for i, b := range []string{rtGC, rtMalloc, rtMap, rtOther} {
		if seen[i] {
			return b
		}
	}
	return ""
}

// layerTimes accumulates CPU nanoseconds per layer over profiles.
type layerTimes map[string]int64

func (lt layerTimes) add(samples []cpuSample) {
	for _, s := range samples {
		lt[layerOf(s.stack)] += s.nanos
	}
}

func (lt layerTimes) total() int64 {
	var t int64
	for _, v := range lt {
		t += v
	}
	return t
}
