package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// profileCPU runs fn under the CPU profiler and folds the samples into
// per-layer shares (percent of sampled CPU time, summing to 100). A
// profile that cannot be taken or read yields nil and a message on
// standard error; the traced run then reports zero shares.
func profileCPU(fn func()) map[string]float64 {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		fn()
		return nil
	}
	fn()
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		return nil
	}
	return shares
}

// foldProfile decodes a gzipped pprof profile and attributes each
// sample's CPU time to a layer (see layerOf), returning percent shares.
func foldProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
		byLayer[layerOf(frames)] += v
		total += v
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = 0
	}
	if total == 0 {
		return out, nil
	}
	for l, v := range byLayer {
		out[l] = 100 * v / total
	}
	return out, nil
}

// internalLayers are the program packages reported under their own
// name; other program packages fold into "other".
var internalLayers = map[string]bool{}

func init() {
	for _, l := range cpuLayers {
		internalLayers[l] = true
	}
}

// layerOf attributes a stack (leaf first) to a layer: the leaf's own
// package when it is a program package, the runtime or sync; otherwise
// (standard-library helpers such as crypto, sort or encoding) the first
// caller that is one of those, so library time lands on the layer that
// asked for it.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if l, ok := packageLayer(fn); ok {
			return l
		}
	}
	return "other"
}

// packageLayer maps one function name to a layer, reporting false for
// standard-library packages that should defer to their caller.
func packageLayer(fn string) (string, bool) {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "iiotds/internal/"):
		name := strings.TrimPrefix(pkg, "iiotds/internal/")
		if internalLayers[name] && name != "bench" && name != "other" {
			return name, true
		}
		return "other", true
	case pkg == "main" || strings.HasPrefix(pkg, "iiotds/perfbench"), pkg == "runtime/pprof":
		return "bench", true
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime", true
	case pkg == "sync" || strings.HasPrefix(pkg, "sync/") || pkg == "internal/sync":
		return "sync", true
	}
	return "", false
}

// funcPackage extracts the import path from a symbol name such as
// "iiotds/internal/radio.(*Medium).Send".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location -> function names, innermost first
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the protobuf encoding of profile.proto: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	var (
		p       = &profile{locFuncs: map[uint64][]string{}}
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locLine = map[uint64][]uint64{} // location id -> function ids
	)
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locLine {
		for _, f := range fns {
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[i])
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
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
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
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
