package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile with the standard library
// alone: a minimal decoder for the profile.proto fields the per-package
// attribution needs (samples, locations, functions, string table).

// pbField is one decoded protobuf field: a varint value, or the bytes of
// a length-delimited one.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields decodes a message's top-level fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// cpuSample is one profile sample: its stack as function names, leaf
// first, and its weight (the last sample value, CPU nanoseconds).
type cpuSample struct {
	stack  []string
	weight int64
}

// parseCPUProfile decodes a gzipped runtime/pprof profile.
func parseCPUProfile(r io.Reader) ([]cpuSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	var rawSamples [][2][]uint64
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					locs, err = pbInts(sf, locs)
				case 2:
					vals, err = pbInts(sf, vals)
				}
				if err != nil {
					return nil, err
				}
			}
			rawSamples = append(rawSamples, [2][]uint64{locs, vals})
		case 4: // location
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // line
					lfs, err := pbFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, x := range lfs {
						if x.num == 1 {
							fns = append(fns, x.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.data))
		}
	}
	out := make([]cpuSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		locs, vals := rs[0], rs[1]
		if len(vals) == 0 {
			continue
		}
		s := cpuSample{weight: int64(vals[len(vals)-1])}
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Runtime frames that mark a sample as stack growth, garbage collection
// or scheduling work, checked anywhere in the stack in that order.
var (
	stackFrames = []string{"runtime.newstack", "runtime.copystack", "runtime.morestack"}
	gcFrames    = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime.sweepone", "runtime.deductSweepCredit"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.futex", "runtime.park_m",
		"runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.semasleep", "runtime.semawakeup", "runtime.usleep",
		"runtime.osyield", "runtime.runqgrab", "runtime.goready"}
)

// cpuPackages are the layers host CPU is attributed to.
var cpuPackages = []string{"netsim", "cassandra", "zk", "binding", "core", "load", "history"}

func hasFrame(stack []string, names []string) bool {
	for _, f := range stack {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

// cpuByLayer attributes profile weight to the host_cpu_pct buckets. The
// runtime buckets (stack growth, GC, scheduling) take a sample first, by
// any frame in its stack; otherwise the sample goes to the innermost frame
// in one of the repository's packages, so runtime work a package calls
// (allocation, channel operations) counts against that package.
func cpuByLayer(samples []cpuSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.weight
		switch {
		case hasFrame(s.stack, stackFrames):
			by["runtime_stack"] += s.weight
		case hasFrame(s.stack, gcFrames):
			by["runtime_gc"] += s.weight
		case hasFrame(s.stack, schedFrames):
			by["runtime_sched"] += s.weight
		default:
			if pkg := innermostPackage(s.stack); pkg != "" {
				by[pkg] += s.weight
			}
		}
	}
	out := map[string]float64{}
	for _, k := range append(append([]string(nil), cpuPackages...), "runtime_stack", "runtime_sched", "runtime_gc") {
		out["host_cpu_pct."+k] = pct(by[k], total)
	}
	return out
}

const internalPrefix = "correctables/internal/"

func innermostPackage(stack []string) string {
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		for _, p := range cpuPackages {
			if p == pkg {
				return pkg
			}
		}
		return ""
	}
	return ""
}

// cpuLayersFromBytes parses a profile's bytes into host_cpu_pct metrics.
func cpuLayersFromBytes(b []byte) (map[string]float64, error) {
	samples, err := parseCPUProfile(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return cpuByLayer(samples), nil
}
