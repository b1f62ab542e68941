package main

// A reader for the CPU profiles runtime/pprof writes (gzipped protocol
// buffers in the profile.proto format), reduced to what the benchmark
// needs: each sample's leaf function and CPU time, summed by layer.
// The standard library writes this format but has no reader, and the
// module takes no dependencies, so the few messages used are decoded
// here by hand.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("profile: truncated message")

// pbField is one decoded protocol-buffer field: a varint (or fixed)
// value, or the raw bytes of a length-delimited one.
type pbField struct {
	num  int
	wire int
	v    uint64
	raw  []byte
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.raw, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func (f pbField) varints(dst []uint64) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.v), nil
	}
	b := f.raw
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// cpuByFunction decodes a (possibly gzipped) CPU profile and returns
// the self CPU nanoseconds of each leaf function.
func cpuByFunction(prof []byte) (map[string]int64, error) {
	if len(prof) > 2 && prof[0] == 0x1f && prof[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(prof))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if prof, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	fields, err := pbFields(prof)
	if err != nil {
		return nil, err
	}
	var strs []string
	var typeIdx []uint64
	var samples, locs, funcs []pbField
	for _, f := range fields {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.raw))
		case profSampleType:
			sub, err := pbFields(f.raw)
			if err != nil {
				return nil, err
			}
			for _, s := range sub {
				if s.num == valueTypeType {
					typeIdx = append(typeIdx, s.v)
				}
			}
		case profSample:
			samples = append(samples, f)
		case profLocation:
			locs = append(locs, f)
		case profFunction:
			funcs = append(funcs, f)
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The value column to sum: "cpu" (nanoseconds) when present, else
	// the last column.
	col := len(typeIdx) - 1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			col = i
		}
	}
	funcName := map[uint64]string{}
	for _, f := range funcs {
		sub, err := pbFields(f.raw)
		if err != nil {
			return nil, err
		}
		var id uint64
		var name string
		for _, s := range sub {
			switch s.num {
			case functionID:
				id = s.v
			case functionName:
				name = str(s.v)
			}
		}
		funcName[id] = name
	}
	// A location's first line is its innermost (leaf) frame; later
	// lines are the callers it was inlined into.
	leafOf := map[uint64]string{}
	for _, l := range locs {
		sub, err := pbFields(l.raw)
		if err != nil {
			return nil, err
		}
		var id uint64
		leaf, seen := "", false
		for _, s := range sub {
			switch s.num {
			case locationID:
				id = s.v
			case locationLine:
				if seen {
					continue
				}
				line, err := pbFields(s.raw)
				if err != nil {
					return nil, err
				}
				for _, lf := range line {
					if lf.num == lineFunctionID {
						leaf, seen = funcName[lf.v], true
					}
				}
			}
		}
		leafOf[id] = leaf
	}
	out := map[string]int64{}
	var ids, vals []uint64
	for _, sm := range samples {
		sub, err := pbFields(sm.raw)
		if err != nil {
			return nil, err
		}
		ids, vals = ids[:0], vals[:0]
		for _, s := range sub {
			switch s.num {
			case sampleLocationID:
				if ids, err = s.varints(ids); err != nil {
					return nil, err
				}
			case sampleValue:
				if vals, err = s.varints(vals); err != nil {
					return nil, err
				}
			}
		}
		if len(ids) == 0 || col < 0 || col >= len(vals) {
			continue
		}
		out[leafOf[ids[0]]] += int64(vals[col])
	}
	return out, nil
}

// packageOf returns the import path of a Go symbol name, e.g.
// "gossipmia/internal/tensor" for "gossipmia/internal/tensor.GemmNT"
// and "net/http" for "net/http.(*conn).serve". Type arguments of
// generic instantiations are ignored.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf names the layer a package belongs to: this module's packages
// by their own names (the server's middleware counts as server), the
// Go runtime as one layer, and the standard library's HTTP and JSON
// stacks as "http" and "json".
func layerOf(pkg string) string {
	const mod = "gossipmia/"
	switch {
	case pkg == "":
		return "unknown"
	case pkg == "main" || pkg == mod+"perfbench":
		return "bench"
	case strings.HasPrefix(pkg, mod+"internal/server"):
		return "server"
	case strings.HasPrefix(pkg, mod+"internal/"):
		name := strings.TrimPrefix(pkg, mod+"internal/")
		name, _, _ = strings.Cut(name, "/")
		return name
	case strings.HasPrefix(pkg, mod+"pkg/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:]
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		// The standard library's internal packages support the runtime.
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "mime" || strings.HasPrefix(pkg, "mime/"):
		return "http"
	case pkg == "encoding/json":
		return "json"
	}
	top, _, _ := strings.Cut(pkg, "/")
	return top
}

// funcLayer names the layer of a profiled function. Assembly routines
// named without a package (cmpbody, memeqbody) belong to the runtime.
func funcLayer(fn string) string {
	if !strings.Contains(fn, ".") {
		return "runtime"
	}
	return layerOf(packageOf(fn))
}

// cpuShareByLayer turns per-function self CPU into each layer's share
// of the total.
func cpuShareByLayer(byFunc map[string]int64) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for fn, ns := range byFunc {
		by[funcLayer(fn)] += ns
		total += ns
	}
	out := map[string]float64{}
	for layer, ns := range by {
		out[layer] = ratio(float64(ns), float64(total))
	}
	return out
}
