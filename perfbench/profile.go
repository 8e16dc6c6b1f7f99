package main

// CPU-profile attribution: decode a runtime/pprof CPU profile (gzipped
// protobuf, decoded here with the few message fields the attribution needs,
// so the benchmark has no dependency outside the standard library) and
// charge each sample to one layer of the repository.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profSample is one sampled stack, innermost frame first, with the number
// of profiler ticks that caught it and their CPU time.
type profSample struct {
	funcs []string
	ticks int64
	ns    int64
}

// readProfile decodes a CPU profile file written by runtime/pprof.
func readProfile(path string) ([]profSample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

var errProto = errors.New("malformed profile protobuf")

// pbField is one decoded protobuf field: a varint or a length-delimited body.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

func pbUvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errProto
}

// pbFields splits a message body into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbUvarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbUvarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n, err := pbUvarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field in either packed or plain form.
func pbInts(f pbField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.v), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n, err := pbUvarint(b)
		if err != nil {
			return nil, err
		}
		into = append(into, v)
		b = b[n:]
	}
	return into, nil
}

// decodeProfile turns a profile.proto message into sampled stacks. Field
// numbers are those of github.com/google/pprof/proto/profile.proto.
func decodeProfile(data []byte) ([]profSample, error) {
	top, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		types     [][2]uint64 // sample_type: (type, unit) string indices
		funcName  = map[uint64]uint64{}
		locFuncs  = map[uint64][]uint64{}
		rawSample []pbField
	)
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			vt, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var t [2]uint64
			for _, g := range vt {
				if g.num == 1 || g.num == 2 {
					t[g.num-1] = g.v
				}
			}
			types = append(types, t)
		case 2: // sample
			rawSample = append(rawSample, f)
		case 4: // location
			lf, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range lf {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line, innermost inlined call first
					lines, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range lines {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			ff, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// A CPU profile has two values per sample: "samples"/"count" and
	// "cpu"/"nanoseconds".
	ti, ci := -1, -1
	for i, t := range types {
		switch str(t[0]) {
		case "samples":
			ti = i
		case "cpu":
			ci = i
		}
	}
	if ti < 0 || ci < 0 {
		return nil, fmt.Errorf("%w: not a CPU profile", errProto)
	}
	out := make([]profSample, 0, len(rawSample))
	for _, f := range rawSample {
		sf, err := pbFields(f.bytes)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, g := range sf {
			switch g.num {
			case 1:
				locs, err = pbInts(g, locs)
			case 2:
				vals, err = pbInts(g, vals)
			}
			if err != nil {
				return nil, err
			}
		}
		if len(vals) != len(types) {
			return nil, fmt.Errorf("%w: sample has %d values for %d types", errProto, len(vals), len(types))
		}
		s := profSample{ticks: int64(vals[ti]), ns: int64(vals[ci])}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				s.funcs = append(s.funcs, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Attribution classes besides the repository's own modules.
const (
	classSched = "go.sched"
	classGC    = "go.gc"
	classOther = "other"
)

// gcFuncs mark a stack as garbage-collector work wherever they appear on
// it: background marking, mark assists charged to an allocation, sweeping,
// and scavenging. Functions named runtime.gc* and methods of runtime.gc*
// types count too.
var gcFuncs = map[string]bool{
	"runtime.bgsweep":              true,
	"runtime.bgscavenge":           true,
	"runtime.sweepone":             true,
	"runtime.deductSweepCredit":    true,
	"runtime.(*sweepLocked).sweep": true,
	"runtime.(*mheap).reclaim":     true,
	"runtime.markroot":             true,
	"runtime.scanobject":           true,
	"runtime.greyobject":           true,
	"runtime.wbBufFlush":           true,
	"runtime.stopTheWorldWithSema": true,
}

// schedEntries are the scheduler, channel and blocking entry points of the
// runtime. A sample whose innermost non-runtime frame called one of them is
// goroutine-scheduling cost: a channel hand-off, a park or wake-up, a
// blocking semaphore, or the bookkeeping around a system call.
var schedEntries = map[string]bool{}

func init() {
	for _, f := range strings.Fields(`chansend1 chansend chanrecv1 chanrecv2
		chanrecv selectgo selectnbsend selectnbrecv closechan block gopark
		goparkunlock goready ready Gosched gosched_m goschedguarded mcall
		park_m newproc semacquire1 semrelease1 entersyscall
		entersyscallblock exitsyscall reentersyscall notesleep notewakeup
		lock2 unlock2 futex usleep osyield`) {
		schedEntries["runtime."+f] = true
	}
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// layerOf charges one stack (innermost frame first) to a class:
//
//   - go.gc when any frame is garbage-collector work;
//   - go.sched when the stack is all runtime (threads looking for work,
//     sysmon, start-up) or its innermost non-runtime frame called a
//     scheduler or channel entry point;
//   - otherwise the module of the innermost repro/internal/<module> frame,
//     or mainLayer for the innermost "main." frame when mainLayer is set
//     (the profiled daemon's own package), so allocation and other runtime
//     work a layer asks for is charged to it;
//   - other for the rest (perfbench's own code).
func layerOf(funcs []string, mainLayer string) string {
	for _, fn := range funcs {
		if gcFuncs[fn] || strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.(*gc") {
			return classGC
		}
	}
	k := 0
	for k < len(funcs) && isRuntime(funcs[k]) {
		k++
	}
	if k == len(funcs) || (k > 0 && schedEntries[funcs[k-1]]) {
		return classSched
	}
	for _, fn := range funcs[k:] {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if mainLayer != "" && strings.HasPrefix(fn, "main.") {
			return mainLayer
		}
	}
	return classOther
}

// cpuShares sums the samples' CPU seconds per class.
func cpuShares(samples []profSample, mainLayer string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.funcs, mainLayer)] += float64(s.ns) / 1e9
	}
	return out
}
