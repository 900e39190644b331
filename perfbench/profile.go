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

// attributionRule says where bucketOf puts a CPU-profile sample; the
// run prints it with the numbers. Internal packages outside the layer
// list count as "other". Every sample lands in exactly one bucket, so
// the buckets sum to the profile's total.
const attributionRule = "innermost ensembleio/internal/<pkg> frame -> <pkg>.self_s (stdlib below it included); " +
	"else facade or unlisted package -> other.self_s; else perfbench itself -> bench.self_s; " +
	"else GC frame -> host.gc_s; else host.sched_s"

const internalPrefix = "ensembleio/internal/"

// gcFrames are runtime functions that only the garbage collector runs.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcStart",
}

// attribution accumulates CPU nanoseconds per bucket over one or more
// profiles.
type attribution struct {
	ns    map[string]int64 // bucket ("sim", "host.sched", ...) -> CPU ns
	total int64            // sum of every sample's CPU ns
}

func newAttribution() *attribution { return &attribution{ns: map[string]int64{}} }

// add attributes every sample of one gzipped pprof CPU profile.
func (a *attribution) add(gz []byte, layers map[string]bool) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return errors.New("profile: no cpu sample type")
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return errors.New("profile: sample lacks cpu value")
		}
		var frames []string
		for _, id := range s.locations {
			frames = append(frames, p.locations[id]...)
		}
		a.ns[bucketOf(frames, layers)] += s.values[vi]
		a.total += s.values[vi]
	}
	return nil
}

// bucketOf applies the attribution rule to one stack, innermost first.
func bucketOf(frames []string, layers map[string]bool) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			name := pkg[strings.LastIndexByte(pkg, '/')+1:]
			if layers[name] {
				return name
			}
			return "other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "ensembleio.") {
			return "other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "host.gc"
			}
		}
	}
	return "host.sched"
}

// profile is the part of a pprof profile the attribution needs:
// sample types, samples, and each location's function names innermost
// first (inlined frames expanded).
type profile struct {
	sampleTypes []string
	samples     []sample
	locations   map[uint64][]string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// decodeProfile parses the gzipped profile.proto that runtime/pprof
// writes. Only the fields the attribution reads are decoded.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		typeIdx  []int64
		samples  []sample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{samples: samples, locations: map[uint64][]string{}}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for id, fns := range locLines {
		for _, f := range fns {
			p.locations[id] = append(p.locations[id], str(funcName[f]))
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling f with each field number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field in either its packed (body)
// or unpacked (single value) encoding.
func varints(v uint64, body []byte, f func(uint64)) error {
	if body == nil {
		f(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		f(x)
		body = body[n:]
	}
	return nil
}
