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

// modules are the layers host CPU time is attributed to. A sample goes
// to the innermost frame of repro/internal/<module>; internal packages
// outside this list (trace, workload, fault) count as "other".
var modules = []string{"sim", "simnet", "cluster", "proclet", "core", "sharded",
	"load", "metrics", "obs", "replication", "gc", "other"}

const internalPrefix = "repro/internal/"

// moduleOf attributes one stack, innermost frame first. Channel handoff
// under sim.(*Kernel).resumeAndWait therefore counts as sim, and map
// iteration under core.(*Scheduler).demandOn as core. A stack with no
// repro/internal frame is gc when a garbage-collector frame is on it,
// and other otherwise.
func moduleOf(stack []string) string {
	gc := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			mod := rest[:strings.IndexAny(rest+".", "./")]
			for _, m := range modules[:len(modules)-2] {
				if m == mod {
					return m
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// Sample is one CPU profile sample: its stack, innermost frame first,
// and its weight in CPU nanoseconds.
type Sample struct {
	Stack  []string
	Weight int64
}

// Attribute sums the samples' weights by module.
func Attribute(samples []Sample) map[string]int64 {
	w := make(map[string]int64)
	for _, s := range samples {
		w[moduleOf(s.Stack)] += s.Weight
	}
	return w
}

// Shares turns module weights into fractions of their total. Every
// module is present; the fractions sum to 1, or are all 0 when there is
// no weight.
func Shares(w map[string]int64) map[string]float64 {
	var total int64
	for _, v := range w {
		total += v
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		out[m] = 0
		if total > 0 {
			out[m] = float64(w[m]) / float64(total)
		}
	}
	return out
}

// ParseProfile decodes the gzipped protobuf written by
// runtime/pprof.StartCPUProfile into samples. Only the fields the
// attribution needs are read: samples (location IDs and values),
// locations (their line entries' function IDs), functions (name) and
// the string table. The weight is the last sample value, CPU
// nanoseconds for a CPU profile.
func ParseProfile(gz []byte) ([]Sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function ID -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					return appendUints(&s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, Sample{Stack: stack, Weight: int64(s.values[len(s.values)-1])})
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its integer value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64 field")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32 field")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
