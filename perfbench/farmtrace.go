package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"time"

	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/promtext"
)

// newTracedFarm assembles a farm the way NewFarm does — NewOrigin, one
// NewProxy per index, SetPeers with the full address book — except that
// every proxy's upstream client records spans into rec and dials through
// one shared transport that counts new connections.
func newTracedFarm(seed int64, rec *spanRecorder) (*httpproxy.Farm, error) {
	tr := httpproxy.NewTransport()
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		rec.dials.Add(1)
		return dial(ctx, network, addr)
	}
	origin, err := httpproxy.NewOrigin()
	if err != nil {
		return nil, err
	}
	f := &httpproxy.Farm{Origin: origin}
	for i := 0; i < farmProxies; i++ {
		p, err := httpproxy.NewProxy(httpproxy.Config{
			ID:        ids.NodeID(i),
			Tables:    farmTables,
			OriginURL: origin.URL(),
			Seed:      seed,
			Client:    &http.Client{Transport: &tracingTransport{from: i, inner: tr, rec: rec}},
		})
		if err != nil {
			f.Close() //nolint:errcheck // already on the error path
			return nil, err
		}
		f.Proxies = append(f.Proxies, p)
	}
	book := make(map[ids.NodeID]string, farmProxies)
	rec.nodes = map[string]int{hostOf(origin.URL()): toOrigin}
	for i, p := range f.Proxies {
		book[p.ID()] = p.URL()
		rec.nodes[hostOf(p.URL())] = i
	}
	for _, p := range f.Proxies {
		p.SetPeers(book)
	}
	return f, nil
}

func hostOf(base string) string {
	u, err := url.Parse(base)
	if err != nil {
		return ""
	}
	return u.Host
}

// stageHists is the farm-wide /metrics stage histograms, summed over
// proxies, with the cost of scraping them.
type stageHists struct {
	buckets  map[string][]promtext.Bucket // stage → cumulative buckets
	scrapeMs []float64
	bytes    []float64
}

// scrapeStages scrapes every proxy's /metrics.
func scrapeStages(client *http.Client, f *httpproxy.Farm) (*stageHists, error) {
	out := &stageHists{buckets: make(map[string][]promtext.Bucket)}
	for _, p := range f.Proxies {
		t0 := time.Now()
		resp, err := client.Get(p.URL() + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %v: %w", p.ID(), err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // read side
		if err != nil {
			return nil, fmt.Errorf("scrape %v: %w", p.ID(), err)
		}
		doc, err := promtext.Parse(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("scrape %v: %w", p.ID(), err)
		}
		out.scrapeMs = append(out.scrapeMs, float64(time.Since(t0).Nanoseconds())/1e6)
		out.bytes = append(out.bytes, float64(len(body)))
		for _, stage := range []string{"server", "gate_wait"} {
			bs := doc.Buckets("adc_stage_latency_seconds", promtext.L("stage", stage))
			sum := out.buckets[stage]
			if sum == nil {
				sum = make([]promtext.Bucket, len(bs))
				for i, b := range bs {
					sum[i].LE = b.LE
				}
			}
			for i := range bs {
				if i < len(sum) && sum[i].LE == bs[i].LE {
					sum[i].Cum += bs[i].Cum
				}
			}
			out.buckets[stage] = sum
		}
	}
	return out, nil
}

// quantileSince estimates a stage's q-quantile in µs over the observations
// made between two scrapes.
func (h *stageHists) quantileSince(before *stageHists, stage string, q float64) float64 {
	now, then := h.buckets[stage], before.buckets[stage]
	delta := make([]promtext.Bucket, len(now))
	for i, b := range now {
		delta[i] = b
		if i < len(then) {
			delta[i].Cum -= then[i].Cum
		}
	}
	return promtext.HistQuantile(delta, q) * 1e6
}

// spanStats is the per-layer analysis of the traced window's spans.
type spanStats struct {
	roots, localRoots   int
	edgeHit, leaf, self Hist
	peer, usefulPeer    int
	edgeNs, hopNs       int64 // self time of roots and of peer exchanges
	originNs, orphanNs  int64 // self time of origin fetches and unlinked spans
}

func analyzeSpans(spans []fspan) *spanStats {
	parents := spanParents(spans)
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	self := selfTimes(ivs, parents)
	kids := make([]int, len(spans))
	for _, p := range parents {
		if p >= 0 {
			kids[p]++
		}
	}
	// Each span's root, to know whether its request ended at a proxy cache.
	root := make([]int, len(spans))
	var find func(i int) int
	find = func(i int) int {
		if parents[i] < 0 {
			return i
		}
		return find(parents[i])
	}
	for i := range spans {
		root[i] = find(i)
	}
	st := &spanStats{}
	for i, s := range spans {
		dur := s.End - s.Start
		switch {
		case s.From == fromClient:
			st.roots++
			st.edgeNs += self[i]
			if kids[i] == 0 {
				st.localRoots++
				if s.Hit {
					st.edgeHit.Record(dur)
				}
			}
		case parents[i] < 0:
			st.orphanNs += self[i]
		case s.To == toOrigin:
			st.originNs += self[i]
		default:
			st.peer++
			st.hopNs += self[i]
			if spans[root[i]].From == fromClient && spans[root[i]].Hit {
				st.usefulPeer++
			}
			if kids[i] == 0 {
				st.leaf.Record(dur)
			} else {
				st.self.Record(self[i])
			}
		}
	}
	return st
}

// farmPass is one pass over a farm for the traced run: set up, the
// fixed-rate window and a saturation window.
type farmPass struct {
	setup  *farmSetup
	res    *loadResult
	c      counters
	sat    float64
	mem    memSnap
	before *stageHists
	after  *stageHists
	cpu    []byte
	spans  []fspan
	dials  uint64
}

// runTraced is the traced farm run: an untraced pass under a CPU profile,
// for the counters, /metrics, Go runtime deltas, CPU shares and the
// tracing baseline, then a pass over a traced farm for the spans.
func (w farmWorkload) runTraced(seed int64, budget time.Duration, rep *report) error {
	defer debug.SetGCPercent(debug.SetGCPercent(farmGOGC))
	rep.note("GOGC %d", farmGOGC)
	fixed := time.Duration(float64(budget) * fixedShare / 2)
	satWin := time.Duration(float64(budget) * searchShare)
	n := int(w.rate * fixed.Seconds())

	// Untraced pass.
	s, err := w.setUp(seed, n, w.newFarm(seed), httpproxy.NewClient())
	if err != nil {
		return err
	}
	checkReplies(rep, "warm-up", s.problems)
	base := farmPass{setup: s}
	if base.before, err = scrapeStages(s.client, s.farm); err != nil {
		s.close()
		return err
	}
	stop, err := startCPUProfile()
	if err != nil {
		s.close()
		return err
	}
	m0 := readMem()
	base.res, base.c = w.fixedWindow(s, seed, fixed)
	base.mem = readMem().since(m0)
	base.after, err = scrapeStages(s.client, s.farm)
	if err == nil {
		base.sat = saturation(s, seed, satWin, "sat-")
	}
	base.cpu = stop()
	s.close()
	if err != nil {
		return err
	}
	checkReplies(rep, "fixed-rate window", base.res.problems)
	checkCounters(rep, "fixed-rate window", base.res, base.c)

	// Traced pass.
	rec := &spanRecorder{}
	client := httpproxy.NewClient()
	client.Transport = &tracingTransport{from: fromClient, inner: client.Transport, rec: rec}
	ts, err := w.setUp(seed, n, func() (*httpproxy.Farm, error) { return newTracedFarm(seed, rec) }, client)
	if err != nil {
		return err
	}
	defer ts.close()
	checkReplies(rep, "traced warm-up", ts.problems)
	rec.take()
	dials0 := rec.dials.Load()
	tr := farmPass{setup: ts}
	tr.res, tr.c = w.fixedWindow(ts, seed, fixed)
	tr.dials = rec.dials.Load() - dials0
	tr.spans = rec.take()
	tr.sat = saturation(ts, seed, satWin, "sat-")
	checkReplies(rep, "traced fixed-rate window", tr.res.problems)
	checkCounters(rep, "traced fixed-rate window", tr.res, tr.c)

	rep.attempted = uint64(base.res.offered + tr.res.offered)
	rep.failed = uint64(base.res.offered - base.res.completed + tr.res.offered - tr.res.completed)
	return w.perLayer(rep, seed, fixed, base, tr)
}

// perLayer derives the farm's per-layer metrics from the two passes.
func (w farmWorkload) perLayer(rep *report, seed int64, fixed time.Duration, base, tr farmPass) error {
	done := float64(max(base.res.completed, 1))
	c := base.c.stats
	lat := base.res.latencies(fixed, fixedSubs)
	trLat := tr.res.latencies(fixed, fixedSubs)
	st := analyzeSpans(tr.spans)
	// The roots must be exactly the traced window's requests.
	rep.check(st.roots == tr.res.sent, "traced window: %d root spans for %d requests", st.roots, tr.res.sent)

	pl := newPerLayer()
	pl.set("workload.gen_s", base.setup.gen.Seconds())
	pl.proxyCounters(c, done)
	pl.set("edge.hit_us_p50", st.edgeHit.QuantileUs(0.5))
	pl.set("edge.local_frac", float64(st.localRoots)/float64(max(st.roots, 1)))
	pl.set("edge.server_us_p50", base.after.quantileSince(base.before, "server", 0.5))
	pl.set("hop.peer_per_req", float64(c.ForwardLearned+c.ForwardRandom)/done)
	pl.set("hop.origin_per_req", float64(base.c.resolved)/done)
	pl.set("hop.leaf_us_p50", st.leaf.QuantileUs(0.5))
	pl.set("hop.self_us_p50", st.self.QuantileUs(0.5))
	pl.set("hop.dials_per_kreq", 1000*float64(tr.dials)/float64(max(tr.res.completed, 1)))
	pl.set("hop.useful_frac", float64(st.usefulPeer)/float64(max(st.peer, 1)))
	pl.set("gate.wait_us_p99", base.after.quantileSince(base.before, "gate_wait", 0.99))
	pl.set("gate.shed", float64(c.Shed))
	pl.set("flight.coalesced_per_kreq", 1000*float64(c.CoalescedMisses)/done)
	scrapes := append(append([]float64(nil), base.before.scrapeMs...), base.after.scrapeMs...)
	pl.set("telemetry.scrape_ms", median(scrapes))
	pl.set("telemetry.bytes", median(base.after.bytes))
	pl.set("trace.overhead_lat", trLat.subQuantile(0.5)/lat.subQuantile(0.5)-1)
	pl.set("trace.overhead_rate", 1-tr.sat/base.sat)
	pl.goRuntime(base.mem, done)
	if err := pl.cpu(rep, base.cpu); err != nil {
		return err
	}
	pl.set("loadgen.oversleep_p50_us", lat.oversleep.QuantileUs(0.5))
	pl.set("loadgen.oversleep_p99_us", lat.oversleep.QuantileUs(0.99))
	pl.set("loadgen.raw_lat_p50_us", lat.raw.QuantileUs(0.5))
	pl.set("loadgen.lat_p99_us", lat.lat.QuantileUs(0.99))
	pl.set("loadgen.lat_p999_us", lat.lat.QuantileUs(0.999))
	pl.set("loadgen.offered_frac", float64(base.res.sentInWindow)/float64(max(base.res.offered, 1)))

	// Budget: the generator's service time per request against the self
	// time of the spans beneath it.
	var serviceNs float64
	for _, recs := range tr.res.conns {
		for _, r := range recs {
			if r.completed() {
				serviceNs += float64(r.Done - r.Sent)
			}
		}
	}
	n := float64(max(tr.res.completed, 1))
	perReq := serviceNs / n
	layers := []struct {
		name string
		ns   int64
	}{{"edge", st.edgeNs}, {"hop", st.hopNs}, {"origin", st.originNs}, {"unlinked", st.orphanNs}}
	var covered float64
	rep.note("budget (traced window, µs per request; generator service time %.1f µs):", perReq/1e3)
	for _, l := range layers {
		if l.name != "unlinked" {
			covered += float64(l.ns)
		}
		rep.note("  %-9s %8.1f µs/req  %5.1f%%", l.name, float64(l.ns)/n/1e3, 100*float64(l.ns)/serviceNs)
	}
	coverage := covered / serviceNs
	pl.set("budget.coverage", coverage)
	if coverage < 0.9 {
		rep.note("budget: linked spans cover %.1f%% (< 90%%) of the time per request; the rest is the generator's own work outside the exchange and unlinked spans", 100*coverage)
	}
	if err := writeJSONLines(outPath(w.name, seed, "spans.jsonl"), tr.spans); err != nil {
		return err
	}
	if err := writeFile(outPath(w.name, seed, "cpu.pprof"), base.cpu); err != nil {
		return err
	}
	pl.into(rep)
	return nil
}
