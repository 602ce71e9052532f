package main

import (
	"testing"
	"time"
)

func TestCPUGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/adc-sim/adc/internal/core.(*Tables).Update":      "core",
		"github.com/adc-sim/adc/internal/sim.(*VEngine).Run":         "sim",
		"github.com/adc-sim/adc/internal/proxy.(*ADC).receiveReply":  "proxy",
		"github.com/adc-sim/adc/internal/httpproxy.(*Proxy).serve":   "httpproxy",
		"github.com/adc-sim/adc/internal/stats.(*Histogram).Add":     "telemetry",
		"github.com/adc-sim/adc/perfbench.drive.func1":               "bench",
		"net/http.(*conn).serve":                                     "net_http",
		"net/textproto.(*Reader).ReadMIMEHeader":                     "net_http",
		"syscall.Syscall":                                            "syscall",
		"internal/runtime/syscall.Syscall6":                          "syscall",
		"internal/poll.(*FD).Write":                                  "syscall",
		"runtime.mallocgc":                                           "runtime_gc",
		"runtime.scanobject":                                         "runtime_gc",
		"runtime.(*mspan).nextFreeIndex":                             "runtime_gc",
		"runtime.futex":                                              "runtime_sched",
		"runtime.findRunnable":                                       "runtime_sched",
		"runtime.memmove":                                            "other",
		"strconv.AppendInt":                                          "other",
		"github.com/adc-sim/adc/internal/workload.(*Generator).Next": "other",
	} {
		if got := cpuGroup(fn); got != want {
			t.Errorf("cpuGroup(%q) = %s, want %s", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

var sink int

func TestLeafSamplesDecodesRealProfile(t *testing.T) {
	stop, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	sink = spin(300 * time.Millisecond)
	prof, err := leafSamples(stop())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for fn, n := range prof {
		if fn == "" || fn == "?" {
			t.Errorf("%d samples without a function name", n)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no samples decoded from a 300 ms busy loop")
	}
	var sum float64
	for _, v := range prof.shares() {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("group shares sum to %v, want 1", sum)
	}
}
