package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
)

// nameRE is the grammar of metric and workload names: a letter or digit,
// then at most 63 letters, digits, '_', '.' or '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the grammar of units, as in "ms", "req/s", "%" or "count".
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validName reports whether s is a well-formed metric or workload name.
func validName(s string) bool { return nameRE.MatchString(s) }

// metric is one reported value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects one run's outcome: the metrics, in the order they were
// added, and the request accounting.
type report struct {
	metrics   []metric
	attempted uint64
	failed    uint64
	// problems lists failed correctness checks; any entry makes the run
	// incorrect.
	problems []string
	// notes are human-readable lines printed before the result line.
	notes []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit})
}

// check records a correctness problem when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// validate checks every metric against the name and unit grammar, for
// duplicates and for non-finite values.
func (r *report) validate() error {
	seen := make(map[string]bool, len(r.metrics))
	for _, m := range r.metrics {
		if !validName(m.Name) {
			return fmt.Errorf("bad metric name %q", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", m.Name, m.Value)
		}
		seen[m.Name] = true
	}
	return nil
}

// declared is the metric list of BENCHMARK.json that a run must report.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadDeclared reads the metric declarations from a BENCHMARK.json file.
func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

// matchDeclared checks that the run reported exactly the declared metrics,
// each with its declared unit.
func (r *report) matchDeclared(want []declaredMetric) error {
	got := make(map[string]string, len(r.metrics))
	for _, m := range r.metrics {
		got[m.Name] = m.Unit
	}
	for _, w := range want {
		unit, ok := got[w.Name]
		if !ok {
			return fmt.Errorf("declared metric %s was not reported", w.Name)
		}
		if unit != w.Unit {
			return fmt.Errorf("metric %s: unit %q, declared %q", w.Name, unit, w.Unit)
		}
		delete(got, w.Name)
	}
	for name := range got {
		return fmt.Errorf("metric %s is not declared", name)
	}
	return nil
}

// write prints the notes, one "name value unit" line per metric, and the
// result object as the last line.
func (r *report) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "# CHECK FAILED:", p)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %16s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
