package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuGroups are the layers CPU samples are attributed to, by the package
// of the sample's leaf frame.
var cpuGroups = []string{
	"core", "sim", "proxy", "httpproxy", "net_http", "syscall",
	"runtime_gc", "runtime_sched", "telemetry", "bench", "other",
}

const modulePath = "github.com/adc-sim/adc/"

// cpuGroup names the layer of a leaf function such as
// "github.com/adc-sim/adc/internal/core.(*Tables).Update" or
// "runtime.mallocgc".
func cpuGroup(fn string) string {
	pkg, name := splitFunc(fn)
	if rest, ok := strings.CutPrefix(pkg, modulePath); ok {
		switch rest {
		case "internal/core":
			return "core"
		case "internal/sim", "internal/msg", "internal/ids":
			return "sim"
		case "internal/proxy":
			return "proxy"
		case "internal/httpproxy":
			return "httpproxy"
		case "internal/stats", "internal/metrics", "internal/promtext", "internal/obs":
			return "telemetry"
		case "perfbench":
			return "bench"
		}
		return "other"
	}
	switch {
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "net/textproto" ||
		pkg == "net/url" || pkg == "bufio" || pkg == "mime":
		return "net_http"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "net" ||
		strings.HasPrefix(pkg, "internal/syscall/") || strings.HasSuffix(pkg, "/syscall"):
		return "syscall"
	case pkg == "runtime":
		return runtimeGroup(name)
	}
	return "other"
}

// runtimeGroup splits runtime leaf frames into garbage collection and
// allocation, scheduling and parking, and everything else.
func runtimeGroup(name string) string {
	name = strings.TrimPrefix(strings.TrimPrefix(name, "(*"), "(")
	for _, p := range []string{"gc", "scan", "mark", "sweep", "malloc", "heap", "greyobject", "findObject",
		"wbBuf", "bulkBarrier", "mspan", "mcache", "mcentral", "mheap", "memclr", "nextFreeFast", "spanOf",
		"pageAlloc", "typePointers", "writeHeapBits", "markBits", "gcWork", "gcBits"} {
		if strings.HasPrefix(name, p) {
			return "runtime_gc"
		}
	}
	for _, p := range []string{"schedule", "findRunnable", "park", "futex", "note", "netpoll", "epoll", "mcall",
		"gopark", "goready", "ready", "runq", "steal", "wakep", "startm", "stopm", "usleep", "osyield",
		"lock", "unlock", "procyield", "casgstatus", "execute", "gogo", "exitsyscall", "entersyscall",
		"reentersyscall", "selectgo", "chansend", "chanrecv", "sellock", "resetspinning", "checkTimers",
		"handoffp", "acquirep", "releasep", "sysmon", "goschedImpl", "gosched", "newproc", "goexit",
		"semacquire", "semrelease", "notewakeup", "mPark", "timer", "runtimer", "resetForSleep", "goroutineReady"} {
		if strings.HasPrefix(name, p) {
			return "runtime_sched"
		}
	}
	return "other"
}

// splitFunc splits a fully qualified Go function name into its package
// path and the rest.
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// cpuProfile is a CPU profile reduced to sample counts per leaf function.
type cpuProfile map[string]int64

// shares returns each group's share of the samples (all zero when empty).
func (p cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuGroups))
	var total int64
	for fn, n := range p {
		out[cpuGroup(fn)] += float64(n)
		total += n
	}
	for g := range out {
		out[g] /= float64(max(total, 1))
	}
	return out
}

// top returns the k leaf functions with the most samples, as
// "share group function" lines.
func (p cpuProfile) top(k int) []string {
	type fc struct {
		fn string
		n  int64
	}
	var all []fc
	var total int64
	for fn, n := range p {
		all = append(all, fc{fn, n})
		total += n
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n || all[i].n == all[j].n && all[i].fn < all[j].fn })
	var out []string
	for i := 0; i < k && i < len(all); i++ {
		out = append(out, fmt.Sprintf("%5.1f%%  %-13s %s", 100*float64(all[i].n)/float64(total), cpuGroup(all[i].fn), all[i].fn))
	}
	return out
}

// leafSamples decodes a gzipped profile.proto and sums the first sample
// value (the sample count) per leaf function. Only the fields it needs are
// decoded: Profile.sample (2), .location (4), .function (5) and
// .string_table (6); Sample.location_id (1) and .value (2); Location.id (1)
// and .line (4); Line.function_id (1); Function.id (1) and .name (2).
func leafSamples(profile []byte) (cpuProfile, error) {
	if len(profile) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location → leaf function
		funcName = map[uint64]int64{}  // function → string index
		strs     []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := varints(v, b)
					if len(ids) > 0 && first {
						s.leaf, first = ids[0], false
					}
					return err
				case 2:
					vals, err := varints(v, b)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			gotLine := false
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !gotLine: // the first line is the innermost frame
					gotLine = true
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(cpuProfile)
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields fn
// gets the value and a nil slice; for length-delimited fields the bytes
// and a value of ^0. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(field, ^uint64(0), b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints returns a repeated varint field's values: one value when it was
// sent unpacked (b nil), all of them when packed.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return out, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
