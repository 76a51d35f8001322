package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// cpuBuckets are the modules CPU samples are attributed to, by the
// function of the sample's leaf frame.
var cpuBuckets = []string{"stencil", "simnet", "spmd", "mmps", "core", "repart", "experiments",
	"runtime_gc", "runtime_sched", "syscall", "other"}

// allocBuckets are the modules allocations are attributed to, by the first
// frame inside the program's internal packages.
var allocBuckets = []string{"stencil", "simnet", "spmd", "mmps", "core", "repart", "experiments", "other"}

// internalModule maps a function name inside netpart/internal/... to its
// bucket, or "" for any other function.
func internalModule(fn string, buckets []string) string {
	rest, ok := strings.CutPrefix(fn, "netpart/internal/")
	if !ok {
		return ""
	}
	mod, _, _ := strings.Cut(rest, ".")
	mod, _, _ = strings.Cut(mod, "/")
	for _, b := range buckets {
		if b == mod {
			return b
		}
	}
	return "other"
}

// cpuBucket classifies a leaf function for the self.* profile split.
func cpuBucket(fn string) string {
	if m := internalModule(fn, cpuBuckets); m != "" {
		return m
	}
	switch {
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/poll."),
		strings.HasPrefix(fn, "internal/runtime/syscall."), strings.HasPrefix(fn, "runtime/internal/syscall."),
		fn == "runtime.netpoll", fn == "runtime.epollwait", fn == "runtime.write1", fn == "runtime.read":
		return "syscall"
	case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.scan"),
		strings.HasPrefix(fn, "runtime.mark"), strings.HasPrefix(fn, "runtime.greyobject"),
		strings.HasPrefix(fn, "runtime.findObject"), strings.HasPrefix(fn, "runtime.(*gcWork)"),
		strings.HasPrefix(fn, "runtime.(*gcBits)"), strings.HasPrefix(fn, "runtime.(*mspan)"),
		strings.HasPrefix(fn, "runtime.(*sweepLocked)"), strings.HasPrefix(fn, "runtime.sweepone"),
		strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"),
		strings.HasPrefix(fn, "runtime.wbBuf"), strings.HasPrefix(fn, "runtime.bulkBarrier"),
		strings.HasPrefix(fn, "runtime.typePointers"), strings.HasPrefix(fn, "runtime.(*mheap)"),
		strings.HasPrefix(fn, "runtime.malloc"), strings.HasPrefix(fn, "runtime.nextFree"),
		strings.HasPrefix(fn, "runtime.(*mcache)"), strings.HasPrefix(fn, "runtime.(*mcentral)"),
		strings.HasPrefix(fn, "runtime.(*spanSet)"), strings.HasPrefix(fn, "runtime.span"),
		fn == "runtime.madvise", fn == "runtime.getempty", fn == "runtime.heapBitsSetType":
		return "runtime_gc"
	case strings.HasPrefix(fn, "runtime.schedule"), strings.HasPrefix(fn, "runtime.findRunnable"),
		strings.HasPrefix(fn, "runtime.park"), strings.HasPrefix(fn, "runtime.gopark"),
		strings.HasPrefix(fn, "runtime.goready"), strings.HasPrefix(fn, "runtime.ready"),
		strings.HasPrefix(fn, "runtime.mcall"), strings.HasPrefix(fn, "runtime.futex"),
		strings.HasPrefix(fn, "runtime.notesleep"), strings.HasPrefix(fn, "runtime.notewakeup"),
		strings.HasPrefix(fn, "runtime.stealWork"), strings.HasPrefix(fn, "runtime.runqgrab"),
		strings.HasPrefix(fn, "runtime.usleep"), strings.HasPrefix(fn, "runtime.osyield"),
		strings.HasPrefix(fn, "runtime.lock"), strings.HasPrefix(fn, "runtime.unlock"),
		strings.HasPrefix(fn, "runtime.wakep"), strings.HasPrefix(fn, "runtime.startm"),
		strings.HasPrefix(fn, "runtime.stopm"), strings.HasPrefix(fn, "runtime.execute"),
		strings.HasPrefix(fn, "runtime.casgstatus"), strings.HasPrefix(fn, "runtime.gogo"),
		strings.HasPrefix(fn, "runtime.semacquire"), strings.HasPrefix(fn, "runtime.semrelease"),
		strings.HasPrefix(fn, "sync.runtime_"), strings.HasPrefix(fn, "runtime.selectgo"),
		strings.HasPrefix(fn, "runtime.chan"), strings.HasPrefix(fn, "runtime.(*timer"),
		strings.HasPrefix(fn, "runtime.checkTimers"),
		strings.HasPrefix(fn, "runtime.procyield"), strings.HasPrefix(fn, "runtime.pidle"),
		strings.HasPrefix(fn, "runtime.(*guintptr)"), strings.HasPrefix(fn, "runtime.asyncPreempt"),
		strings.HasPrefix(fn, "runtime.preempt"), fn == "runtime.tgkill", fn == "runtime.readgstatus",
		strings.HasPrefix(fn, "runtime.acquireSudog"), strings.HasPrefix(fn, "runtime.releaseSudog"),
		strings.HasPrefix(fn, "runtime.runq"), strings.HasPrefix(fn, "runtime.globrunq"):
		return "runtime_sched"
	}
	return "other"
}

// cpuProfile collects a CPU profile of the traced phase in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends profiling and returns each CPU bucket's share of the samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	total := 0.0
	for _, s := range samples {
		out[stackBucket(s.stack)] += float64(s.count)
		total += float64(s.count)
	}
	if total > 0 {
		for b := range out {
			out[b] /= total
		}
	}
	return out, nil
}

// stackBucket charges a sample to its leaf frame's bucket, except that the
// runtime's copy and zeroing bodies (the code behind copy() and fresh
// slices) go to the nearest calling module: to runtime_gc when they run
// inside an allocation, else to the first netpart/internal frame.
func stackBucket(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	if leaf != "runtime.memmove" && !strings.HasPrefix(leaf, "runtime.memclr") {
		return cpuBucket(leaf)
	}
	for _, fn := range stack[1:] {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return "runtime_gc"
		}
		if m := internalModule(fn, cpuBuckets); m != "" {
			return m
		}
	}
	return "other"
}

// cpuSample is one stack (leaf first) with its sample count.
type cpuSample struct {
	stack []string
	count int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields it needs are read: samples (location ids,
// values), locations (lines → function ids; within a location the first
// line is the innermost inlined frame), functions (name string index) and
// the string table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				vals, err := packedVarints(v, b)
				if err != nil {
					return err
				}
				switch {
				case f == 1:
					s.locs = append(s.locs, vals...)
				case f == 2 && s.count == 0 && len(vals) > 0:
					s.count = int64(vals[0])
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := "?"
				if idx, ok := fnName[fn]; ok && idx < uint64(len(strs)) {
					name = strs[idx]
				}
				cs.stack = append(cs.stack, name)
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value or the length-delimited
// bytes. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, body); err != nil {
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

// packedVarints reads a repeated varint field in either encoding: one
// unpacked value (b == nil) or a packed run.
func packedVarints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
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

// allocSnapshot is the allocation profile's cumulative bytes per stack.
type allocSnapshot map[[32]uintptr]float64

// takeAllocSnapshot reads the allocation profile after a GC has published
// every allocation so far. Sampled byte counts are scaled up the same way
// pprof does, by the probability that an allocation of the record's
// average size was sampled.
func takeAllocSnapshot() allocSnapshot {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	out := allocSnapshot{}
	for _, r := range recs {
		bytes := float64(r.AllocBytes)
		if r.AllocObjects > 0 && rate > 1 {
			avg := bytes / float64(r.AllocObjects)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		out[r.Stack0] += bytes
	}
	return out
}

// allocByModule attributes the bytes allocated between two snapshots to
// the module of each stack's first frame inside netpart/internal/.
func allocByModule(before, after allocSnapshot) map[string]float64 {
	out := map[string]float64{}
	for _, b := range allocBuckets {
		out[b] = 0
	}
	for stk, bytes := range after {
		d := bytes - before[stk]
		if d <= 0 {
			continue
		}
		mod := "other"
		n := 0
		for n < len(stk) && stk[n] != 0 {
			n++
		}
		frames := runtime.CallersFrames(stk[:n])
		for {
			f, more := frames.Next()
			if m := internalModule(f.Function, allocBuckets); m != "" {
				mod = m
				break
			}
			if !more {
				break
			}
		}
		out[mod] += d
	}
	return out
}
