package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a CPU profile the benchmark starts and stops itself.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, stores it at path for go tool pprof, and returns
// the share of CPU samples per layer.
func (p *cpuProfile) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return layerShares(p.buf.Bytes())
}

// layerOf maps one sample's stack, leaf first, to the layer its CPU time
// is charged to: "runtime.gc" when any frame belongs to the garbage
// collector, otherwise the lbcast/internal/<module> of the innermost such
// frame (so a map lookup or an allocation is charged to the layer that made
// it), and "other" for stacks with none.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" ||
			f == "runtime.bgscavenge" || f == "runtime.markroot" || f == "runtime.scanobject" {
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		if mod, ok := strings.CutPrefix(f, "lbcast/internal/"); ok {
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			return mod
		}
	}
	return "other"
}

// layerShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the samples.
func layerShares(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := make(map[string]float64)
	var total float64
	for _, s := range prof.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				frames = append(frames, prof.strings[prof.funcName[fn]])
			}
		}
		counts[layerOf(frames)] += float64(s.count)
		total += float64(s.count)
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts, nil
}

// profileData is the part of a pprof profile the layer split needs.
type profileData struct {
	samples  []profileSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profileSample struct {
	locs  []uint64
	count int64
}

// Field numbers of the pprof profile.proto messages read here.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locationID      = 1
	locationLine    = 4
	lineFunctionID  = 1
	functionID      = 1
	functionName    = 2
)

// decodeProfile parses the uncompressed protobuf encoding of a profile.
func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case profSample:
			var s profileSample
			var vals []uint64
			err := eachField(msg, func(f int, v uint64, sub []byte) error {
				switch f {
				case sampleLocation:
					return appendRepeated(&s.locs, v, sub)
				case sampleValue:
					return appendRepeated(&vals, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, sub []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(sub, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFunctionID {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendRepeated appends a repeated integer field that arrived either as
// one varint (msg nil) or packed (msg holds the varints).
func appendRepeated(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, calling fn with the
// varint value (wire type 0) or the bytes (wire type 2) of each. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
