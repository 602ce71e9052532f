package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime/debug"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/workload"
)

// farmGOGC is the garbage collector's target of the farm runs. The load
// generator shares the farm's heap; at the default of 100 its own
// allocations start a GC cycle every few hundred requests, and the farm's
// tail latency — so max_rate_rps — follows the GC's pacing, which swung by
// half from run to run on a 2-vCPU host. The go.* per-layer metrics still
// count every allocation and cycle.
const farmGOGC = 400

// farmProxies and farmTables are the in-process farm's shape: five proxies
// with the paper's tables at Scale 0.1.
const farmProxies = 5

var farmTables = core.Config{SingleSize: 2000, MultipleSize: 2000, CachingSize: 1000}

// Share of the run budget each farm phase measures. The rest goes to the
// setups and the rate search's extra steps.
const (
	fixedShare   = 0.35 // the fixed-rate window
	fixedSubs    = 10   // its sub-windows; latencies are their median
	searchShare  = 0.03 // the saturation window and each search step
	searchSubs   = 5    // sub-windows of a search step
	setupReps    = 3    // setups per run; setup_s is their median
	searchSteps  = 8    // offered-rate steps down from saturation, at most
	searchStep   = 0.85 // each step offers this share of the previous rate
	bisectSteps  = 3    // bisections per pass inside the bracket
	searchPasses = 3    // passes of the rate search; max_rate_rps is their median
	keepUpShare  = 0.99 // a step keeps up when this share of its requests completes in the window
)

// farmWorkload is one farm workload: its request streams, fixed offered
// rate and the p90 latency limit of the rate search.
type farmWorkload struct {
	name     string
	rate     float64
	limitP90 time.Duration
	// streams returns the warm-up stream and the measured stream for a run
	// whose fixed-rate window holds n requests.
	streams func(seed int64, n int) (warm, measure []ids.ObjectID, err error)
}

var farmHot = farmWorkload{name: "farm-hot", rate: 6000, limitP90: time.Millisecond, streams: hotStreams}

var farmPaper = farmWorkload{name: "farm-paper", rate: 2000, limitP90: 5 * time.Millisecond, streams: paperStreams}

// hotObjects is farm-hot's object count; every proxy's caching table
// (1000 entries) holds all of them.
const (
	hotObjects = 256
	hotAlpha   = 0.8
	hotWarm    = 20_000
)

// hotStreams draws Zipf(0.8) requests over 256 objects, numbered by a
// seeded permutation so the popular objects differ between seeds.
func hotStreams(seed int64, n int) (warm, measure []ids.ObjectID, err error) {
	z, err := workload.NewZipf(hotObjects, hotAlpha)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(hotObjects)
	draw := func(k int) []ids.ObjectID {
		out := make([]ids.ObjectID, k)
		for i := range out {
			out[i] = ids.ObjectID(perm[z.Rank(rng)] + 1)
		}
		return out
	}
	return draw(hotWarm), draw(n), nil
}

// paperStreams builds the paper's three-phase stream at Scale 0.1 (1000
// hot objects, 30% one-timers), sized so its request phases fill the
// fixed-rate window with the paper's proportions; the fill phase warms the
// farm.
func paperStreams(seed int64, n int) (warm, measure []ids.ObjectID, err error) {
	cfg := workload.DefaultConfig(int(float64(n) / 0.75))
	cfg.PopulationSize = 1000
	cfg.Seed = seed
	tr, err := workload.Materialize(cfg)
	if err != nil {
		return nil, nil, err
	}
	fillEnd, _ := tr.Boundaries()
	objs := tr.Objects()
	return objs[:fillEnd], objs[fillEnd:], nil
}

// farmSetup is one set-up farm, warmed and ready to measure.
type farmSetup struct {
	farm     *httpproxy.Farm
	client   *http.Client
	urls     []string
	pacers   [loadConns]*pacer
	measure  []ids.ObjectID
	gen      time.Duration
	setup    time.Duration
	problems []string
}

func (s *farmSetup) close() {
	s.client.CloseIdleConnections()
	s.farm.Close() //nolint:errcheck // teardown; the measurements are taken
	for _, p := range s.pacers {
		if p != nil {
			p.close()
		}
	}
}

// setUp generates the streams, builds a farm with build and warms it with
// a closed loop over the warm-up stream.
func (w farmWorkload) setUp(seed int64, n int, build func() (*httpproxy.Farm, error), client *http.Client) (*farmSetup, error) {
	t0 := time.Now()
	warm, measure, err := w.streams(seed, n)
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	f, err := build()
	if err != nil {
		return nil, err
	}
	s := &farmSetup{farm: f, client: client, measure: measure, gen: gen}
	for _, p := range f.Proxies {
		s.urls = append(s.urls, p.URL())
	}
	for k := range s.pacers {
		if s.pacers[k], err = newPacer(); err != nil {
			s.close()
			return nil, err
		}
	}
	// A closed loop over exactly the warm-up stream: a window long enough
	// that it never closes first.
	res := s.drive(load{window: time.Hour, objs: warm, tag: "w-", seed: seed, count: len(warm)})
	s.setup = time.Since(t0)
	s.problems = res.problems
	if res.errors > 0 {
		s.close()
		return nil, fmt.Errorf("%s warm-up: %d of %d requests failed", w.name, res.errors, len(warm))
	}
	return s, nil
}

func (w farmWorkload) newFarm(seed int64) func() (*httpproxy.Farm, error) {
	return func() (*httpproxy.Farm, error) {
		return httpproxy.NewFarm(httpproxy.FarmConfig{Proxies: farmProxies, Tables: farmTables, Seed: seed})
	}
}

// counters is the farm's request accounting over one window.
type counters struct {
	stats    metrics.ProxyStats
	resolved uint64
}

func readCounters(f *httpproxy.Farm) counters {
	return counters{stats: f.TotalStats(), resolved: f.Origin.Resolved()}
}

func (c counters) since(b counters) counters {
	s, o := c.stats, b.stats
	return counters{
		stats: metrics.ProxyStats{
			Requests:        s.Requests - o.Requests,
			LocalHits:       s.LocalHits - o.LocalHits,
			ForwardLearned:  s.ForwardLearned - o.ForwardLearned,
			ForwardRandom:   s.ForwardRandom - o.ForwardRandom,
			ForwardOrigin:   s.ForwardOrigin - o.ForwardOrigin,
			LoopsDetected:   s.LoopsDetected - o.LoopsDetected,
			CacheInsertions: s.CacheInsertions - o.CacheInsertions,
			CacheEvictions:  s.CacheEvictions - o.CacheEvictions,
			Shed:            s.Shed - o.Shed,
			CoalescedMisses: s.CoalescedMisses - o.CoalescedMisses,
		},
		resolved: c.resolved - b.resolved,
	}
}

// exchanges is the number of HTTP exchanges behind the window's client
// requests: each entry exchange, each peer forward and each origin fetch.
func (c counters) exchanges(completed int) uint64 {
	return uint64(completed) + c.stats.ForwardLearned + c.stats.ForwardRandom + c.resolved
}

// checkCounters cross-checks what the client saw against the farm's
// counters. Every completed request ended in exactly one way: a proxy
// served it from its store, the origin resolved it, or it rode along on
// another request's fetch at its entry proxy. The client's hits are the
// store hits plus the followers whose leader hit.
func checkCounters(rep *report, phase string, res *loadResult, c counters) {
	s := c.stats
	rep.check(uint64(res.completed) == s.LocalHits+c.resolved+s.CoalescedMisses,
		"%s: %d completed requests, but %d store hits + %d origin fetches + %d coalesced",
		phase, res.completed, s.LocalHits, c.resolved, s.CoalescedMisses)
	rep.check(uint64(res.hits) >= s.LocalHits && uint64(res.hits) <= s.LocalHits+s.CoalescedMisses,
		"%s: client saw %d hits, proxies counted %d store hits (%d coalesced)",
		phase, res.hits, s.LocalHits, s.CoalescedMisses)
	rep.check(s.ForwardOrigin == c.resolved, "%s: %d origin forwards, origin resolved %d", phase, s.ForwardOrigin, c.resolved)
}

// checkReplies records the bad replies of a phase.
func checkReplies(rep *report, phase string, problems []string) {
	for _, p := range problems {
		rep.check(false, "%s: %s", phase, p)
	}
}

// fixedWindow drives the measured stream at the workload's fixed rate and
// returns the result with the farm's counters over the window.
func (w farmWorkload) fixedWindow(s *farmSetup, seed int64, window time.Duration) (*loadResult, counters) {
	before := readCounters(s.farm)
	res := s.drive(load{rate: w.rate, window: window, drain: true, objs: s.measure, tag: "f-", seed: seed})
	return res, readCounters(s.farm).since(before)
}

// saturation measures the closed-loop rate of both connections.
func saturation(s *farmSetup, seed int64, window time.Duration, tag string) float64 {
	res := s.drive(load{window: window, objs: s.measure, tag: tag, seed: seed})
	return float64(res.inWindow) / window.Seconds()
}

// searchRate finds the highest offered rate the open loop keeps up with:
// at least keepUpShare of the offered requests complete in the step's
// window, and the median over its sub-windows of the replayed p90 latency
// stays within the limit. The first pass starts at the closed-loop
// saturation rate and steps down by searchStep until a step keeps up, then
// bisects between that step and the one above it. Further passes bisect
// again from that step up to one step above the bracket. Each pass yields the completed rate of
// its highest step that kept up; the result is the median over passes,
// since one step's verdict turns on a second of a noisy host.
func (w farmWorkload) searchRate(rep *report, s *farmSetup, seed int64, window time.Duration) float64 {
	sat := saturation(s, seed, window, "sat-")
	rep.note("%s: closed-loop saturation %.0f req/s", w.name, sat)
	step := 0
	try := func(rate float64) (completed float64, kept bool) {
		res := s.drive(load{rate: rate, window: window, objs: s.measure, first: step * 7919, tag: fmt.Sprintf("s%d-", step), seed: seed})
		step++
		checkReplies(rep, "rate search", res.problems)
		p90 := time.Duration(res.latencies(window, searchSubs).subQuantile(0.9))
		completed = float64(res.inWindow) / window.Seconds()
		kept = float64(res.inWindow) >= keepUpShare*float64(res.offered) && p90 <= w.limitP90
		rep.note("%s: offered %.0f req/s: completed %d/%d in window, p90 %v, keeps up %v", w.name, rate, res.inWindow, res.offered, p90, kept)
		return completed, kept
	}
	bisect := func(lo, hi, best float64, steps int) float64 {
		for i := 0; i < steps; i++ {
			mid := math.Sqrt(lo * hi)
			if c, ok := try(mid); ok {
				lo, best = mid, c
			} else {
				hi = mid
			}
		}
		return best
	}

	hi, lo := sat, 0.0
	var best, last float64
	for rate := sat; step < searchSteps; rate *= searchStep {
		c, ok := try(rate)
		if ok {
			lo, best = rate, c
			break
		}
		hi, last = rate, c
	}
	if lo == 0 {
		rep.note("%s: no step down to %.0f req/s kept up; max_rate_rps is that step's completed rate", w.name, hi)
		return last
	}
	passes := []float64{bisect(lo, hi, best, bisectSteps-1)}
	// Later passes also reach one step above the first pass's bracket, so
	// a step that failed in the first pass by bad luck caps none of them.
	top := min(sat, hi/searchStep)
	for len(passes) < searchPasses {
		passes = append(passes, bisect(lo, top, best, bisectSteps))
	}
	rep.note("%s: max rate of each pass %.0f req/s", w.name, passes)
	return median(passes)
}

// run is the untraced farm run: setups, the fixed-rate window and the rate
// search.
func (w farmWorkload) run(seed int64, budget time.Duration, rep *report) error {
	defer debug.SetGCPercent(debug.SetGCPercent(farmGOGC))
	rep.note("GOGC %d", farmGOGC)
	fixed := time.Duration(float64(budget) * fixedShare)
	n := int(w.rate * fixed.Seconds())
	var (
		s      *farmSetup
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		var err error
		s, err = w.setUp(seed, n, w.newFarm(seed), httpproxy.NewClient())
		if err != nil {
			return err
		}
		checkReplies(rep, "warm-up", s.problems)
		setups = append(setups, s.setup.Seconds())
	}
	defer s.close()

	res, c := w.fixedWindow(s, seed, fixed)
	checkReplies(rep, "fixed-rate window", res.problems)
	checkCounters(rep, "fixed-rate window", res, c)
	rep.attempted = uint64(res.offered)
	rep.failed = uint64(res.offered - res.completed)
	lat := res.latencies(fixed, fixedSubs)
	var service Hist
	for _, recs := range res.conns {
		for _, r := range recs {
			if r.completed() {
				service.Record(r.Done - r.Sent)
			}
		}
	}
	rep.note("%s: fixed window %.0f req/s for %v: %d/%d completed; service time p50 %.1f µs, p90 %.1f µs; oversleep p50 %.1f µs",
		w.name, w.rate, fixed, res.completed, res.offered, service.QuantileUs(0.5), service.QuantileUs(0.9), lat.oversleep.QuantileUs(0.5))

	maxRate := w.searchRate(rep, s, seed, time.Duration(float64(budget)*searchShare))
	completed := float64(max(res.completed, 1))
	addEndToEnd(rep, endToEnd{
		rate:    maxRate,
		p50:     lat.subQuantile(0.50) / 1e3,
		p90:     lat.subQuantile(0.90) / 1e3,
		hitRate: float64(res.hits) / completed,
		hops:    float64(c.exchanges(res.completed)) / completed,
		setup:   median(setups),
	})
	return nil
}
