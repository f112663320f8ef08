package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// moduleShares summarises a runtime/pprof CPU profile as the share of
// samples whose leaf frame (self time, inlining resolved to the innermost
// function) falls in each module. It decodes the gzipped profile.proto
// directly, since the module carries no protobuf dependency.
func moduleShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		sampleLoc []uint64              // leaf location per sample
		sampleVal []int64               // last value (cpu nanoseconds) per sample
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&locs, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				sampleLoc = append(sampleLoc, locs[0])
				sampleVal = append(sampleVal, vals[len(vals)-1])
			}
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if !first {
						return nil
					}
					first = false
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
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
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total float64
	by := map[string]float64{}
	for i, loc := range sampleLoc {
		name := ""
		if idx, ok := funcName[locFunc[loc]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		v := float64(sampleVal[i])
		by[module(name)] += v
		total += v
	}
	shares := map[string]float64{}
	for mod, v := range by {
		shares[mod] = ratio(v, total)
	}
	return shares, nil
}

// module maps a fully qualified Go function name to the layer it belongs
// to: a taskvine internal package, the facade, the benchmark itself,
// syscall (read/write and friends), or the standard-library package.
func module(fn string) string {
	switch {
	case strings.HasPrefix(fn, "taskvine/internal/"):
		rest := fn[len("taskvine/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "taskvine."):
		return "taskvine"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "syscall."),
		strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime/internal/syscall."):
		return "syscall"
	case fn == "":
		return "unknown"
	}
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.Index(fn, "."); i >= 0 {
		return fn[:i]
	}
	return fn
}

var errProto = errors.New("malformed CPU profile")

// eachField walks the top-level fields of one protobuf message, handing
// varint fields their value and length-delimited fields their bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// unpacked varint (data nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n == 0 {
			return errProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning the bytes consumed (0 on
// malformed input).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
