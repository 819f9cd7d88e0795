package hostmon

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Minimal pprof profile.proto reader. runtime/pprof emits gzipped
// protobuf; we need exactly one aggregate out of it — self time by
// package — so instead of vendoring a protobuf stack we walk the wire
// format by hand. Field numbers from profile.proto:
//
//	Profile:  sample_type=1  sample=2  location=4  function=5
//	          string_table=6  period=12
//	Sample:   location_id=1 (repeated uint64)  value=2 (repeated int64)
//	Location: id=1  line=4 (repeated Line)
//	Line:     function_id=1
//	Function: id=1  name=2 (string-table index)
//
// Self time is attributed to each sample's leaf location (first entry in
// location_id, by pprof convention), resolved leaf-inward through Line
// to a function name, then truncated to its package path.

var errPprof = errors.New("hostmon: malformed pprof data")

// uvarint decodes one varint at data[i:], returning the value and the
// next offset (-1 on truncation or overflow).
func uvarint(data []byte, i int) (uint64, int) {
	v, n := binary.Uvarint(data[i:])
	if n <= 0 {
		return 0, -1
	}
	return v, i + n
}

// field decodes one protobuf field at data[i:]: field number, wire type,
// the field payload (varint value or length-delimited bytes), and the
// next offset (-1 on any malformation). Wire types 0 (varint), 1 (i64),
// 2 (bytes), and 5 (i32) cover everything profile.proto emits.
func field(data []byte, i int) (num int, wire int, val uint64, body []byte, next int) {
	key, i := uvarint(data, i)
	if i < 0 {
		return 0, 0, 0, nil, -1
	}
	num = int(key >> 3)
	wire = int(key & 7)
	switch wire {
	case 0:
		val, i = uvarint(data, i)
		return num, wire, val, nil, i
	case 1:
		if i+8 > len(data) {
			return 0, 0, 0, nil, -1
		}
		return num, wire, 0, nil, i + 8
	case 2:
		n, i := uvarint(data, i)
		if i < 0 || uint64(len(data)-i) < n {
			return 0, 0, 0, nil, -1
		}
		return num, wire, 0, data[i : i+int(n)], i + int(n)
	case 5:
		if i+4 > len(data) {
			return 0, 0, 0, nil, -1
		}
		return num, wire, 0, nil, i + 4
	}
	return 0, 0, 0, nil, -1
}

// fields calls fn with each field of one encoded message.
func fields(msg []byte, fn func(num, wire int, val uint64, body []byte) error) error {
	for i := 0; i < len(msg); {
		num, wire, val, body, next := field(msg, i)
		if next < 0 {
			return errPprof
		}
		i = next
		if err := fn(num, wire, val, body); err != nil {
			return err
		}
	}
	return nil
}

// packedOrOne appends the values of a repeated numeric field: wire type
// 2 is the packed encoding, wire type 0 a single element.
func packedOrOne(dst *[]uint64, wire int, val uint64, body []byte) error {
	if wire == 0 {
		*dst = append(*dst, val)
		return nil
	}
	for i := 0; i < len(body); {
		v, n := uvarint(body, i)
		if n < 0 {
			return errPprof
		}
		*dst = append(*dst, v)
		i = n
	}
	return nil
}

// SelfTimeByPkg parses a (possibly gzipped) pprof CPU profile and
// returns self time in nanoseconds keyed by package path. The CPU value
// is the sample's second value when present (samples×period otherwise,
// per the sample_type convention).
func SelfTimeByPkg(data []byte) (map[string]int64, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty profile", errPprof)
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(strings.NewReader(string(data)))
		if err != nil {
			return nil, fmt.Errorf("hostmon: pprof gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("hostmon: pprof gunzip: %w", err)
		}
		data = raw
	}

	var strTab []string
	fnName := map[uint64]uint64{} // function id → name string index
	locFn := map[uint64]uint64{}  // location id → leaf function id
	type sample struct {
		leafLoc uint64
		cpuNs   int64
		count   int64
	}
	var samples []sample
	var period uint64

	err := fields(data, func(num, _ int, val uint64, body []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			err := fields(body, func(num, wire int, val uint64, body []byte) error {
				switch num {
				case 1:
					return packedOrOne(&locs, wire, val, body)
				case 2:
					return packedOrOne(&vals, wire, val, body)
				}
				return nil
			})
			if err != nil || len(locs) == 0 {
				return err
			}
			s := sample{leafLoc: locs[0]}
			if len(vals) >= 2 {
				s.cpuNs = int64(vals[1])
			}
			if len(vals) >= 1 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			err := fields(body, func(num, _ int, val uint64, body []byte) error {
				switch num {
				case 1:
					id = val
				case 4: // Line; the first entry is the leaf-most line
					return fields(body, func(num, _ int, val uint64, _ []byte) error {
						if num == 1 && fn == 0 {
							fn = val
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if id != 0 {
				locFn[id] = fn
			}
		case 5: // Function
			var id, name uint64
			err := fields(body, func(num, _ int, val uint64, _ []byte) error {
				switch num {
				case 1:
					id = val
				case 2:
					name = val
				}
				return nil
			})
			if err != nil {
				return err
			}
			if id != 0 {
				fnName[id] = name
			}
		case 6: // string_table
			strTab = append(strTab, string(body))
		case 12: // period
			period = val
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	self := make(map[string]int64)
	for _, s := range samples {
		name := "(unknown)"
		if fnID, ok := locFn[s.leafLoc]; ok {
			if idx, ok := fnName[fnID]; ok && idx < uint64(len(strTab)) {
				name = strTab[idx]
			}
		}
		ns := s.cpuNs
		if ns == 0 && period > 0 {
			ns = s.count * int64(period)
		}
		self[pkgOf(name)] += ns
	}
	if len(self) == 0 {
		return nil, fmt.Errorf("%w: no samples", errPprof)
	}
	return self, nil
}

// pkgOf truncates a fully qualified function name to its package path:
// "slim/internal/server.(*Server).Handle" → "slim/internal/server",
// "runtime.mallocgc" → "runtime". Names without a recognizable package
// are returned whole.
func pkgOf(name string) string {
	slash := strings.LastIndexByte(name, '/')
	rest := name[slash+1:]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}
