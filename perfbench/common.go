package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// epoch anchors mono, the benchmark's monotonic clock.
var epoch = time.Now()

// mono returns monotonic nanoseconds since process start; one clock read,
// cheaper than time.Now.
func mono() int64 { return int64(time.Since(epoch)) }

// median returns the median of xs (0 when empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd holds one workload's end-to-end metrics; setup and memory are
// completed by addEndToEnd.
type endToEnd struct {
	rate    float64 // req/s
	p50     float64 // µs
	p90     float64 // µs
	hitRate float64
	hops    float64
	setup   float64 // s
}

// addEndToEnd adds the end-to-end metrics in their declared order.
func addEndToEnd(rep *report, e endToEnd) {
	rep.add("max_rate_rps", e.rate, "req/s")
	rep.add("lat_p50_us", e.p50, "us")
	rep.add("lat_p90_us", e.p90, "us")
	rep.add("hit_rate", e.hitRate, "fraction")
	rep.add("hops_per_req", e.hops, "count")
	rep.add("setup_s", e.setup, "s")
	rep.add("rss_peak_mb", rssPeakMB(), "MB")
}

// rssPeakMB reads the process's peak resident set size (VmHWM).
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to the Go runtime's view of mapped memory.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memSnap is the part of runtime.MemStats the go.* metrics use.
type memSnap struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

func (m memSnap) since(before memSnap) memSnap {
	return memSnap{m.mallocs - before.mallocs, m.bytes - before.bytes, m.gcs - before.gcs, m.pauseNs - before.pauseNs}
}

// startCPUProfile starts a CPU profile into memory; the returned function
// stops it and returns the encoded profile.
func startCPUProfile() (func() []byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

// outDir holds what a traced run writes out: spans and CPU profiles. It
// sits in the build directory the benchmark already uses, inside the
// checkout it runs from.
const outDir = ".bench_build/out"

func outPath(workload string, seed int64, suffix string) string {
	return filepath.Join(outDir, workload+"-seed"+strconv.FormatInt(seed, 10)+"-"+suffix)
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// writeJSONLines writes one JSON object per element.
func writeJSONLines[T any](path string, items []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			f.Close() //nolint:errcheck // already failing
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
