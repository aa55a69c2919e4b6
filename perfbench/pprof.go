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

// cpuCounts attributes each CPU-profile sample to one group and returns
// the samples per group:
//   - "gc" when any frame is garbage-collector work (background marking,
//     sweeping, scavenging or an allocation's mark assist);
//   - otherwise the innermost frame in a repro/internal package, by
//     package name ("fd", "ids", "recsa", "sim", …), so runtime and
//     library work such as sort.Slice or malloc is charged to the
//     package that called it;
//   - otherwise "other".
func cpuCounts(profile []byte) (map[string]int64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	for _, s := range p.samples {
		counts[p.group(s.locs)] += s.value
	}
	return counts, nil
}

func gcFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.markroot") ||
		strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") ||
		strings.HasPrefix(fn, "runtime.scanobject") || strings.HasPrefix(fn, "runtime.sweepone")
}

// group classifies one sample's stack (leaf first).
func (p *profile) group(locs []uint64) string {
	pkg := ""
	for _, l := range locs {
		for _, fn := range p.locFuncs[l] {
			if gcFrame(fn) {
				return "gc"
			}
			if pkg == "" {
				if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
					pkg, _, _ = strings.Cut(rest, ".")
					pkg = pkg[strings.LastIndexByte(pkg, '/')+1:]
				}
			}
		}
	}
	if pkg == "" {
		return "other"
	}
	return pkg
}

type profileSample struct {
	locs  []uint64
	value int64
}

type profile struct {
	samples  []profileSample
	locFuncs map[uint64][]string // location → function names, innermost inlined first
}

// parseProfile decodes the subset of a gzipped pprof protobuf that
// cpuShares needs: samples (location ids, first value), locations
// (their lines' function ids), functions (name) and the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		samples   []profileSample
		locLines  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profileSample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { vals = append(vals, x) })
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for loc, fns := range locLines {
		for _, f := range fns {
			if i := funcNames[f]; i >= 0 && i < int64(len(strs)) {
				p.locFuncs[loc] = append(p.locFuncs[loc], strs[i])
			}
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes (nil for a
// varint field).
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wt {
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
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// repeated yields a repeated varint field's values, packed (b non-nil)
// or one per occurrence.
func repeated(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
