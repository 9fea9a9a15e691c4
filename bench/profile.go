package main

// A minimal decoder for the gzipped profile.proto that runtime/pprof
// writes, enough to attribute CPU time to the simulator's layers without a
// dependency on a profile library. Only the fields attribution needs are
// read; every other field is skipped by wire type.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator packages (fbdsim/internal/<pkg>) whose host time
// the traced run reports, in report order.
var layers = []string{
	"system", "cpu", "cache", "trace", "memctrl", "addrmap", "fbdchan",
	"ambcache", "dram", "resource", "sample", "sweep",
}

// layerAlias folds packages that belong to a listed layer into it: exp
// (and its fidelity dispatch) only schedules sweeps.
var layerAlias = map[string]string{"exp": "sweep", "fidelity": "sweep"}

// runtimeLayer collects samples with no layer frame at all, such as the
// garbage collector's background work.
const runtimeLayer = "runtime"

const internalPrefix = "fbdsim/internal/"

// layerOf maps a function name to its layer, or "" when the function is
// not in a layer: runtime and standard-library code, and the simulator's
// helper packages (stats, clock, memreq, ...), whose time counts toward the
// layer that called them.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if a, ok := layerAlias[pkg]; ok {
		return a
	}
	for _, l := range layers {
		if l == pkg {
			return pkg
		}
	}
	return ""
}

// attribute decodes a gzipped CPU profile and returns the CPU nanoseconds
// of each layer plus the number of samples. Each sample's time goes to the
// layer of its innermost layer frame (inlined frames included), so it is
// self time; samples without one go to runtimeLayer.
func attribute(gz []byte) (nanos map[string]int64, samples int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	// The CPU-time value is the sample type measured in nanoseconds.
	vi := len(p.sampleUnits) - 1
	for i, u := range p.sampleUnits {
		if p.str(u) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, errors.New("profile: no sample types")
	}
	nanos = map[string]int64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("profile: sample has too few values")
		}
		samples++
		nanos[p.layerOfStack(s.locations)] += s.values[vi]
	}
	return nanos, samples, nil
}

type profile struct {
	sampleUnits []int64 // string-table index of each sample type's unit
	samples     []pbSample
	locations   map[uint64][]uint64 // location ID → function IDs, innermost first
	functions   map[uint64]int64    // function ID → string-table index of its name
	strings     []string
}

type pbSample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) layerOfStack(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			if l := layerOf(p.str(p.functions[fn])); l != "" {
				return l
			}
		}
	}
	return runtimeLayer
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	valueTypeUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v field) error {
		switch num {
		case profSampleType:
			var unit int64
			err := eachField(v.bytes, func(num int, v field) error {
				if num == valueTypeUnit {
					unit = int64(v.varint)
				}
				return nil
			})
			p.sampleUnits = append(p.sampleUnits, unit)
			return err
		case profSample:
			var s pbSample
			err := eachField(v.bytes, func(num int, v field) error {
				switch num {
				case sampleLocation:
					return v.uints(func(x uint64) { s.locations = append(s.locations, x) })
				case sampleValue:
					return v.uints(func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(v.bytes, func(num int, v field) error {
				switch num {
				case locationID:
					id = v.varint
				case locationLine:
					return eachField(v.bytes, func(num int, v field) error {
						if num == lineFunction {
							fns = append(fns, v.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(v.bytes, func(num int, v field) error {
				switch num {
				case functionID:
					id = v.varint
				case functionName:
					name = int64(v.varint)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStrings:
			p.strings = append(p.strings, string(v.bytes))
		}
		return nil
	})
	return p, err
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// field is one decoded protobuf field: a varint, or the payload of a
// length-delimited field. Fixed-width fields are skipped.
type field struct {
	wire   int
	varint uint64
	bytes  []byte
}

// uints yields a repeated integer field, which an encoder may write either
// packed (one length-delimited run of varints) or as one varint per field.
func (f field) uints(yield func(uint64)) error {
	if f.wire == wireVarint {
		yield(f.varint)
		return nil
	}
	if f.wire != wireBytes {
		return fmt.Errorf("integer field has wire type %d", f.wire)
	}
	for b := f.bytes; len(b) > 0; {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}

// eachField calls fn for every field of the message encoded in b.
func eachField(b []byte, fn func(num int, v field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		v := field{wire: int(key & 7)}
		switch v.wire {
		case wireVarint:
			if v.varint, n = binary.Uvarint(b); n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("truncated length-delimited field")
			}
			v.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case wire64, wire32:
			w := 8
			if v.wire == wire32 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed-width field")
			}
			b = b[w:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", v.wire)
		}
		if err := fn(int(key>>3), v); err != nil {
			return err
		}
	}
	return nil
}
