package main

import (
	"github.com/adc-sim/adc/internal/metrics"
)

// perLayerUnits declares every per-layer metric, in report order. A traced
// run reports all of them on every workload; a layer the workload does not
// exercise reads 0.
var perLayerUnits = []struct{ name, unit string }{
	{"workload.gen_s", "s"},
	{"sim.events_per_req", "count"},
	{"sim.self_ns_per_event", "ns"},
	{"proxy.req_ns", "ns"},
	{"proxy.reply_ns", "ns"},
	{"proxy.fwd_learned_per_req", "count"},
	{"proxy.fwd_random_per_req", "count"},
	{"proxy.fwd_origin_per_req", "count"},
	{"proxy.loops_per_req", "count"},
	{"core.insert_per_req", "count"},
	{"core.evict_per_req", "count"},
	{"client.ns_per_req", "ns"},
	{"edge.hit_us_p50", "us"},
	{"edge.local_frac", "fraction"},
	{"edge.server_us_p50", "us"},
	{"hop.peer_per_req", "count"},
	{"hop.origin_per_req", "count"},
	{"hop.leaf_us_p50", "us"},
	{"hop.self_us_p50", "us"},
	{"hop.dials_per_kreq", "count"},
	{"hop.useful_frac", "fraction"},
	{"gate.wait_us_p99", "us"},
	{"gate.shed", "count"},
	{"flight.coalesced_per_kreq", "count"},
	{"telemetry.scrape_ms", "ms"},
	{"telemetry.bytes", "bytes"},
	{"trace.overhead_lat", "fraction"},
	{"trace.overhead_rate", "fraction"},
	{"go.allocs_per_req", "count"},
	{"go.bytes_per_req", "bytes"},
	{"go.gc_per_kreq", "count"},
	{"go.gc_pause_us_per_kreq", "us"},
	{"cpu.core", "fraction"},
	{"cpu.sim", "fraction"},
	{"cpu.proxy", "fraction"},
	{"cpu.httpproxy", "fraction"},
	{"cpu.net_http", "fraction"},
	{"cpu.syscall", "fraction"},
	{"cpu.runtime_gc", "fraction"},
	{"cpu.runtime_sched", "fraction"},
	{"cpu.telemetry", "fraction"},
	{"cpu.bench", "fraction"},
	{"cpu.other", "fraction"},
	{"loadgen.oversleep_p50_us", "us"},
	{"loadgen.oversleep_p99_us", "us"},
	{"loadgen.raw_lat_p50_us", "us"},
	{"loadgen.lat_p99_us", "us"},
	{"loadgen.lat_p999_us", "us"},
	{"loadgen.offered_frac", "fraction"},
	{"budget.coverage", "fraction"},
}

// perLayer collects one traced run's per-layer values.
type perLayer struct {
	vals map[string]float64
}

func newPerLayer() *perLayer { return &perLayer{vals: make(map[string]float64)} }

func (p *perLayer) set(name string, v float64) {
	for _, d := range perLayerUnits {
		if d.name == name {
			p.vals[name] = v
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// proxyCounters sets the ADC decision and table counters from summed proxy
// statistics, per client request.
func (p *perLayer) proxyCounters(s metrics.ProxyStats, reqs float64) {
	p.set("proxy.fwd_learned_per_req", float64(s.ForwardLearned)/reqs)
	p.set("proxy.fwd_random_per_req", float64(s.ForwardRandom)/reqs)
	p.set("proxy.fwd_origin_per_req", float64(s.ForwardOrigin)/reqs)
	p.set("proxy.loops_per_req", float64(s.LoopsDetected)/reqs)
	p.set("core.insert_per_req", float64(s.CacheInsertions)/reqs)
	p.set("core.evict_per_req", float64(s.CacheEvictions)/reqs)
}

// goRuntime sets the go.* metrics from a memory-statistics delta taken
// over the measured window.
func (p *perLayer) goRuntime(d memSnap, reqs float64) {
	p.set("go.allocs_per_req", float64(d.mallocs)/reqs)
	p.set("go.bytes_per_req", float64(d.bytes)/reqs)
	p.set("go.gc_per_kreq", 1000*float64(d.gcs)/reqs)
	p.set("go.gc_pause_us_per_kreq", 1000*float64(d.pauseNs)/1e3/reqs)
}

// cpu sets the cpu.* shares from a CPU profile and notes its hottest leaf
// functions.
func (p *perLayer) cpu(rep *report, profile []byte) error {
	prof, err := leafSamples(profile)
	if err != nil {
		return err
	}
	shares := prof.shares()
	for _, g := range cpuGroups {
		p.set("cpu."+g, shares[g])
	}
	rep.note("cpu profile, hottest leaf functions:")
	for _, line := range prof.top(12) {
		rep.note("  %s", line)
	}
	return nil
}

// into adds every declared per-layer metric to the report, in order.
func (p *perLayer) into(rep *report) {
	for _, d := range perLayerUnits {
		rep.add(d.name, p.vals[d.name], d.unit)
	}
}
