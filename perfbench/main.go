// Command perfbench is the repository's benchmark. One run measures one
// workload for one seed and prints the result as a JSON object on its last
// line of output:
//
//	perfbench --workload sim-paper --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it adds a traced pass and reports the per-layer metrics.
// Both check the program's outputs and exit 1 when a check fails. The
// metrics, and the workloads the benchmark is judged on, are declared in
// BENCHMARK.json, which the run reads from the working directory to check
// that it reported exactly those metrics. README.md in this directory
// explains every workload and metric, and why farm-paper runs but is not
// declared.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to its untraced and traced runner.
var workloads = map[string]struct {
	untraced func(seed int64, budget time.Duration, rep *report) error
	traced   func(seed int64, budget time.Duration, rep *report) error
}{
	"sim-paper":  {runSimPaper, runSimPaperTraced},
	"farm-hot":   {farmHot.run, farmHot.runTraced},
	"farm-paper": {farmPaper.run, farmPaper.runTraced},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-paper, farm-hot or farm-paper")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "measuring time of the run, in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (sim-paper, farm-hot or farm-paper), --seconds ≥ 1 and --trace 0 or 1\n")
		return 2
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	rep := &report{}
	rep.note("host: nproc %d, GOMAXPROCS %d, %s, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	rep.note("workload %s, seed %d, %d s, trace %d", *name, *seed, *seconds, *trace)
	budget := time.Duration(*seconds) * time.Second
	want := decl.EndToEnd
	if *trace == 1 {
		err = w.traced(*seed, budget, rep)
		want = decl.PerLayer
	} else {
		err = w.untraced(*seed, budget, rep)
	}
	if err == nil {
		err = rep.validate()
	}
	if err == nil {
		err = rep.matchDeclared(want)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}
