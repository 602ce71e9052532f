package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"lat_p50_us", "cpu.net_http", "hop.dials_per_kreq", "go.gc_pause_us_per_kreq", "9lives", "a-b"} {
		if !validName(ok) {
			t.Errorf("%q should be a valid name", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "lat/p50", "µs", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("%q should be rejected", bad)
		}
	}
	for _, d := range perLayerUnits {
		if !validName(d.name) {
			t.Errorf("per-layer metric %q breaks the grammar", d.name)
		}
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("workload %q breaks the grammar", name)
		}
	}
}

func TestReportValidate(t *testing.T) {
	r := &report{}
	r.add("a", 1, "us")
	r.add("a", 2, "us")
	if r.validate() == nil {
		t.Error("a duplicate metric should fail validation")
	}
	r = &report{}
	r.add("b", 1, "not a unit!")
	if r.validate() == nil {
		t.Error("a malformed unit should fail validation")
	}
}

// TestDeclaredMetricsMatchCode checks BENCHMARK.json against the metrics
// the code reports.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	decl, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e := &report{}
	addEndToEnd(e2e, endToEnd{})
	if err := e2e.matchDeclared(decl.EndToEnd); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	pl := &report{}
	for _, d := range perLayerUnits {
		pl.add(d.name, 0, d.unit)
	}
	if err := pl.matchDeclared(decl.PerLayer); err != nil {
		t.Errorf("per-layer: %v", err)
	}

	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(mustRead(t, "../BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the code does not run", w.Name)
		}
	}
}

func TestReportLastLineIsResult(t *testing.T) {
	r := &report{attempted: 10, failed: 1}
	r.note("a note")
	r.add("lat_p50_us", 12.5, "us")
	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 10 || res.Failed != 1 || res.Metrics["lat_p50_us"].Value != 12.5 {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
