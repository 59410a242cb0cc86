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

// layers are the simulator modules whose host time the benchmark
// splits out, in report order.  Self time in any other package goes to
// "runtime" (the Go runtime) or "other".
var layers = []string{"engine", "cpu", "cache", "hbm", "dram"}

// buckets are every attribution target of a profile sample.
var buckets = append(append([]string{}, layers...), "runtime", "other")

const layerPrefix = "redcache/internal/"

// layerOf maps a fully qualified Go function name, as a CPU profile
// records it, to its attribution bucket.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, layerPrefix); ok {
		for _, l := range layers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf extracts the import path from a function name such as
// "redcache/internal/dram.(*Controller).pickFrom" or
// "redcache/internal/engine.push[go.shape.*redcache/internal/mem.Request]".
// Import paths hold no '(' or '[', so the name is first cut there; the
// path then ends at the first '.' after its last '/'.
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile is the part of a pprof CPU profile the layer split needs.
// The profile merges samples with the same stack into one record; each
// record keeps its innermost function, sample count and CPU time.
type profile struct {
	leaf  []string // innermost function of each record
	count []int64  // samples in each record
	ns    []int64  // CPU nanoseconds of each record
}

// samples reports the number of samples.
func (p *profile) samples() int64 {
	var n int64
	for _, c := range p.count {
		n += c
	}
	return n
}

// selfNS sums the CPU nanoseconds attributed to bucket.
func (p *profile) selfNS(bucket string) int64 {
	var n int64
	for i, fn := range p.leaf {
		if layerOf(fn) == bucket {
			n += p.ns[i]
		}
	}
	return n
}

// shares reports each bucket's share of the profile's CPU time.
func (p *profile) shares() map[string]float64 {
	var total int64
	for _, n := range p.ns {
		total += n
	}
	out := map[string]float64{}
	for _, b := range buckets {
		if total > 0 {
			out[b] = float64(p.selfNS(b)) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}

// Field numbers of the pprof profile.proto messages read here.
const (
	profSampleType  = 1 // Profile.sample_type: ValueType
	profSample      = 2 // Profile.sample: Sample
	profLocation    = 4 // Profile.location: Location
	profFunction    = 5 // Profile.function: Function
	profStringTable = 6 // Profile.string_table: string

	valueTypeType = 1 // ValueType.type: string index

	sampleLocationID = 1 // Sample.location_id: repeated uint64, leaf first
	sampleValue      = 2 // Sample.value: repeated int64

	locationID   = 1 // Location.id
	locationLine = 4 // Location.line: Line, innermost (inlined) first

	lineFunctionID = 1 // Line.function_id

	functionID   = 1 // Function.id
	functionName = 2 // Function.name: string index
)

// parseProfile decodes the gzipped protobuf that runtime/pprof writes
// and resolves each sample's innermost function.  A location holding
// inlined calls lists the inlined callee first, so the innermost frame
// is the first line of the sample's first location.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs       []string
		valueTypes []uint64 // string index of each sample value's type
		rawSamples []struct {
			locs   []uint64
			values []uint64
		}
		locFunc  = map[uint64]uint64{} // location ID -> innermost function ID
		funcName = map[uint64]uint64{} // function ID -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case profSample:
			var s struct{ locs, values []uint64 }
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendVarints(&s.locs, v, b)
				case sampleValue:
					return appendVarints(&s.values, v, b)
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case profLocation:
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	countIdx, cpuIdx := -1, -1
	for i, t := range valueTypes {
		switch str(t) {
		case "samples":
			countIdx = i
		case "cpu":
			cpuIdx = i
		}
	}
	if countIdx < 0 || cpuIdx < 0 {
		return nil, errors.New("cpu profile: sample types lack samples or cpu")
	}
	p := &profile{}
	for _, s := range rawSamples {
		if len(s.values) != len(valueTypes) {
			return nil, errors.New("cpu profile: sample with a missing value")
		}
		leaf := ""
		if len(s.locs) > 0 {
			leaf = str(funcName[locFunc[s.locs[0]]])
		}
		p.leaf = append(p.leaf, leaf)
		p.count = append(p.count, int64(s.values[countIdx]))
		p.ns = append(p.ns, int64(s.values[cpuIdx]))
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, b the bytes of a length-delimited field.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1: // 64-bit
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // 32-bit
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field to dst, whether it was
// written as one varint (b nil) or packed (b holds the varints).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst, b = append(*dst, x), b[n:]
	}
	return nil
}
