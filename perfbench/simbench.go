package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/workload"
)

// simScale shrinks the paper's reference setup the way adc.Profile.Scale
// does: 3.99 M requests, 20k/20k/10k tables and 10k hot objects, all
// multiplied by it. At 0.5 one simulation takes about a third of a 20 s
// run on a 2-vCPU Xeon, so every run holds several.
const simScale = 0.5

const (
	simProxies = 5
	simWindow  = 5000 // the paper's moving-average window (§V.2.1)
)

// simConfig is the sim-paper setup for one seed.
type simConfig struct {
	work   workload.Config
	tables core.Config
	seed   int64
}

func newSimConfig(seed int64) simConfig {
	scaled := func(n int) int { return max(1, int(math.Round(float64(n)*simScale))) }
	w := workload.DefaultConfig(scaled(3_990_000))
	w.PopulationSize = scaled(10_000)
	w.Seed = seed
	return simConfig{
		work: w,
		tables: core.Config{
			SingleSize:   scaled(20_000),
			MultipleSize: scaled(20_000),
			CachingSize:  scaled(10_000),
		},
		seed: seed,
	}
}

func (sc simConfig) clusterConfig() cluster.Config {
	return cluster.Config{
		Algorithm:  cluster.ADC,
		NumProxies: simProxies,
		Tables:     sc.tables,
		Seed:       sc.seed,
		Runtime:    cluster.RuntimeVirtualTime,
		Window:     simWindow,
	}
}

// timedSource feeds the closed-loop client and times it: the client asks
// for its next object exactly when the previous reply has been recorded,
// so the wall time between two Next calls is the time the whole system
// spent on one request. The times are also summarized per segment of
// segLen consecutive requests.
type timedSource struct {
	inner  workload.Source
	lat    Hist
	segLen int
	segs   []segment
	cur    Hist
	curNs  int64
	last   int64
}

// segment summarizes a stretch of consecutive requests.
type segment struct {
	rate     float64 // requests per wall second
	p50, p90 float64 // µs
}

func (s *timedSource) Next() (ids.ObjectID, bool) {
	now := mono()
	if s.last != 0 {
		d := now - s.last
		s.lat.Record(d)
		s.cur.Record(d)
		s.curNs += d
		if int(s.cur.Count()) == s.segLen {
			s.segs = append(s.segs, segment{
				rate: float64(s.segLen) / (float64(s.curNs) / 1e9),
				p50:  s.cur.QuantileUs(0.50),
				p90:  s.cur.QuantileUs(0.90),
			})
			s.cur, s.curNs = Hist{}, 0
		}
	}
	s.last = now
	return s.inner.Next()
}

func (s *timedSource) Total() int { return s.inner.Total() }

// simSegments is how many segments each simulation's timing is split into.
// The end-to-end metrics are medians over segments of about 6 ms: a stall
// of the host — the hypervisor taking the CPU for a millisecond or two —
// spoils the few segments it falls in and leaves the median where it was.
const simSegments = 1000

// simRun is one untraced simulation.
type simRun struct {
	res   *cluster.Result
	wall  time.Duration // cluster.Run only
	setup time.Duration // workload generation and cluster build
	gen   time.Duration // workload generation alone
	lat   Hist          // every request's wall time
	segs  []segment     // the same per segment
	mem   memSnap       // over cluster.Run
	cpu   []byte        // CPU profile of cluster.Run, when asked for
}

// simOnce generates the workload, builds the cluster and runs it once,
// under a CPU profile if profile is set.
func simOnce(sc simConfig, profile bool) (*simRun, *workload.Trace, error) {
	r := &simRun{}
	t0 := time.Now()
	tr, err := workload.Materialize(sc.work)
	if err != nil {
		return nil, nil, err
	}
	r.gen = time.Since(t0)
	src := &timedSource{inner: tr.Cursor(), segLen: sc.work.TotalRequests / simSegments}
	c, err := cluster.New(sc.clusterConfig(), src)
	if err != nil {
		return nil, nil, err
	}
	r.setup = time.Since(t0)
	stop := func() []byte { return nil }
	if profile {
		if stop, err = startCPUProfile(); err != nil {
			return nil, nil, err
		}
	}
	before := readMem()
	t1 := time.Now()
	r.res, err = c.Run()
	r.wall = time.Since(t1)
	r.mem = readMem().since(before)
	r.cpu = stop()
	if err != nil {
		return nil, nil, err
	}
	r.lat, r.segs = src.lat, src.segs
	return r, tr, nil
}

// checkSim records the simulator's own correctness conditions.
func checkSim(rep *report, sc simConfig, res *cluster.Result) {
	rep.check(res.Completion == 1, "sim completion %v, want 1", res.Completion)
	rep.check(res.LeakedPending == 0, "sim leaked %d pending entries", res.LeakedPending)
	rep.check(res.Summary.Requests == uint64(sc.work.TotalRequests),
		"sim completed %d requests, want %d", res.Summary.Requests, sc.work.TotalRequests)
}

// runSimPaper is the untraced sim-paper run: whole simulations, each with
// a fresh workload and cluster, until the measuring budget is spent (at
// least two, so determinism is checked on every run).
func runSimPaper(seed int64, budget time.Duration, rep *report) error {
	sc := newSimConfig(seed)
	var (
		runs              []*simRun
		measured          time.Duration
		rates, p50s, p90s []float64
	)
	for len(runs) < 2 || measured+runs[len(runs)-1].wall <= budget {
		r, _, err := simOnce(sc, false)
		if err != nil {
			return err
		}
		runtime.GC() // the next run starts from the same heap state
		checkSim(rep, sc, r.res)
		if len(runs) > 0 {
			a, b := runs[0].res, r.res
			rep.check(a.Summary.Hits == b.Summary.Hits && a.Summary.Hops == b.Summary.Hops && a.Delivered == b.Delivered,
				"sim run %d differs from run 1 on the same seed", len(runs)+1)
		}
		runs = append(runs, r)
		measured += r.wall
		for _, sg := range r.segs {
			rates = append(rates, sg.rate)
			p50s = append(p50s, sg.p50)
			p90s = append(p90s, sg.p90)
		}
		rep.attempted += r.res.Injected
		rep.failed += r.res.Injected - r.res.Summary.Requests
	}
	setups := make([]float64, len(runs))
	whole := make([]float64, len(runs))
	for i, r := range runs {
		setups[i] = r.setup.Seconds()
		whole[i] = float64(r.res.Summary.Requests) / r.wall.Seconds()
	}
	res := runs[0].res
	rep.note("sim-paper: scale %v, %d requests per simulation; req/s of each: %.0f", simScale, sc.work.TotalRequests, whole)
	addEndToEnd(rep, endToEnd{
		rate:    median(rates),
		p50:     median(p50s),
		p90:     median(p90s),
		hitRate: res.Summary.HitRate,
		hops:    res.Summary.Hops,
		setup:   median(setups),
	})
	return nil
}

// Traced simulator.

// Layers of the traced simulator, by node and message kind.
const (
	simProxyReq = iota
	simProxyReply
	simClient
	simOrigin
	simSend // the engine's Send, called from inside a node's Handle
	simLayers
)

var simLayerNames = [simLayers]string{"proxy.req", "proxy.reply", "client", "origin", "sim.send"}

// simSpan is one sampled Handle call.
type simSpan struct {
	Req    uint64 `json:"req"`
	Node   string `json:"node"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	SendNs int64  `json:"send_ns"` // time in child Send spans
}

// simTracer aggregates every Handle and Send, and keeps full spans for a
// sample of requests.
type simTracer struct {
	ctx   sim.Context // a tracedCtx, boxed once
	ns    [simLayers]int64
	calls [simLayers]uint64
	child int64 // Send time inside the Handle now running
	spans []simSpan
}

// tracedCtx is the context the wrapped nodes see: the engine itself, with
// Send timed as a child span. Embedding keeps the engine's Clock,
// Scheduler and Recycler methods, which the nodes type-assert for.
type tracedCtx struct {
	*sim.VEngine
	t *simTracer
}

func (c tracedCtx) Send(m msg.Message) {
	t0 := mono()
	c.VEngine.Send(m)
	d := mono() - t0
	c.t.child += d
	c.t.ns[simSend] += d
	c.t.calls[simSend]++
}

func isReply(m msg.Message) bool {
	_, ok := m.(*msg.Reply)
	return ok
}

// msgReqID returns the request ID a message belongs to (0 for timers).
func msgReqID(m msg.Message) ids.RequestID {
	switch t := m.(type) {
	case *msg.Request:
		return t.ID
	case *msg.Reply:
		return t.ID
	}
	return 0
}

// sampledReq selects about one request in 1024 for full spans.
func sampledReq(id ids.RequestID) bool { return uint64(id)*0x9E3779B97F4A7C15>>54 == 0 }

// tracedNode wraps a node and times its Handle.
type tracedNode struct {
	inner sim.Node
	name  string
	t     *simTracer
	layer func(m msg.Message) int
}

func (n *tracedNode) ID() ids.NodeID { return n.inner.ID() }

func (n *tracedNode) Handle(_ sim.Context, m msg.Message) {
	layer := n.layer(m)
	id := msgReqID(m) // read before Handle, which may recycle m
	t := n.t
	t.child = 0
	t0 := mono()
	n.inner.Handle(t.ctx, m)
	d := mono() - t0
	t.ns[layer] += d - t.child
	t.calls[layer]++
	if sampledReq(id) {
		t.spans = append(t.spans, simSpan{Req: uint64(id), Node: n.name, Layer: simLayerNames[layer], Start: t0, Dur: d, SendNs: t.child})
	}
}

// tracedStarter is a tracedNode whose inner node injects traffic.
type tracedStarter struct{ tracedNode }

func (n *tracedStarter) Start(_ sim.Context) {
	t := n.t
	t.child = 0
	t0 := mono()
	n.inner.(sim.Starter).Start(t.ctx)
	t.ns[n.layer(nil)] += mono() - t0 - t.child
}

// simTraced is the outcome of the traced simulation.
type simTraced struct {
	summary   metrics.Summary
	delivered uint64
	wall      time.Duration
	src       *timedSource
	tracer    *simTracer
}

// runSimTraced assembles the sim-paper system by hand — the same nodes,
// seeds and registration order cluster.New uses — with every node wrapped
// in a timing decorator, and runs it.
func runSimTraced(sc simConfig, tr *workload.Trace) (*simTraced, error) {
	eng := sim.NewVEngine(sim.DefaultLatencyModel())
	t := &simTracer{}
	t.ctx = tracedCtx{VEngine: eng, t: t}
	peers := make([]ids.NodeID, simProxies)
	for i := range peers {
		peers[i] = ids.NodeID(i)
	}
	proxyLayer := func(m msg.Message) int {
		if isReply(m) {
			return simProxyReply
		}
		return simProxyReq
	}
	for _, id := range peers {
		p, err := proxy.New(proxy.Config{ID: id, Peers: peers, Tables: sc.tables, Seed: sc.seed})
		if err != nil {
			return nil, err
		}
		if err := eng.Register(&tracedNode{inner: p, name: id.String(), t: t, layer: proxyLayer}); err != nil {
			return nil, err
		}
	}
	origin := sim.NewOrigin()
	if err := eng.Register(&tracedNode{inner: origin, name: "origin", t: t, layer: func(msg.Message) int { return simOrigin }}); err != nil {
		return nil, err
	}
	out := &simTraced{tracer: t, src: &timedSource{inner: tr.Cursor(), segLen: tr.Len() / simSegments}}
	col := metrics.NewCollector(
		metrics.WithWindow(simWindow),
		metrics.WithSampleEvery(0),
		metrics.WithExpectedRequests(uint64(tr.Len())),
	)
	client, err := sim.NewClient(sim.ClientConfig{
		Source:    out.src,
		Proxies:   peers,
		Seed:      sc.seed, // cluster.New seeds client i with Seed + i·104729
		Collector: col,
	})
	if err != nil {
		return nil, err
	}
	cn := &tracedStarter{tracedNode{inner: client, name: "client", t: t, layer: func(msg.Message) int { return simClient }}}
	if err := eng.Register(cn); err != nil {
		return nil, err
	}

	t0 := time.Now()
	err = eng.Run()
	out.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if !client.Done() {
		return nil, fmt.Errorf("traced sim: client did not finish its trace")
	}
	out.summary = col.Summary()
	out.delivered = eng.Delivered()
	return out, nil
}

// runSimPaperTraced is the traced sim-paper run: one untraced simulation
// under a CPU profile, for the counters, the CPU shares and the tracing
// baseline, then the traced one.
func runSimPaperTraced(seed int64, _ time.Duration, rep *report) error {
	sc := newSimConfig(seed)
	base, tr, err := simOnce(sc, true)
	if err != nil {
		return err
	}
	checkSim(rep, sc, base.res)
	traced, err := runSimTraced(sc, tr)
	if err != nil {
		return err
	}
	rep.attempted = base.res.Injected
	rep.failed = base.res.Injected - base.res.Summary.Requests
	bs := base.res.Summary
	rep.check(traced.summary.HitRate == bs.HitRate && traced.summary.Hops == bs.Hops && traced.delivered == base.res.Delivered,
		"traced sim differs from untraced: hit rate %v/%v, hops %v/%v, deliveries %d/%d",
		traced.summary.HitRate, bs.HitRate, traced.summary.Hops, bs.Hops, traced.delivered, base.res.Delivered)

	reqs := float64(bs.Requests)
	var ps metrics.ProxyStats
	for _, s := range base.res.ProxyStats {
		ps.Add(s)
	}
	t := traced.tracer
	wallNs := float64(traced.wall.Nanoseconds())
	var nodeSelf, spanned float64
	for l := 0; l < simLayers; l++ {
		spanned += float64(t.ns[l])
		if l != simSend {
			nodeSelf += float64(t.ns[l])
		}
	}
	perCall := func(l int) float64 { return float64(t.ns[l]) / float64(max(t.calls[l], 1)) }
	pl := newPerLayer()
	pl.set("workload.gen_s", base.gen.Seconds())
	pl.set("sim.events_per_req", float64(base.res.Delivered)/reqs)
	pl.set("sim.self_ns_per_event", (wallNs-nodeSelf)/float64(traced.delivered))
	pl.set("proxy.req_ns", perCall(simProxyReq))
	pl.set("proxy.reply_ns", perCall(simProxyReply))
	pl.proxyCounters(ps, reqs)
	pl.set("client.ns_per_req", float64(t.ns[simClient])/reqs)
	pl.set("trace.overhead_lat", traced.src.lat.Quantile(0.5)/base.lat.Quantile(0.5)-1)
	pl.set("trace.overhead_rate", 1-base.wall.Seconds()/traced.wall.Seconds())
	pl.goRuntime(base.mem, reqs)
	if err := pl.cpu(rep, base.cpu); err != nil {
		return err
	}
	pl.set("budget.coverage", spanned/wallNs)

	rep.note("budget (traced, ns per request; wall %.0f ns/req):", wallNs/reqs)
	for l := 0; l < simLayers; l++ {
		rep.note("  %-12s %8.0f ns/req  %5.1f%%", simLayerNames[l], float64(t.ns[l])/reqs, 100*float64(t.ns[l])/wallNs)
	}
	rep.note("  %-12s %8.0f ns/req  %5.1f%%  (engine loop outside any span)", "unspanned", (wallNs-spanned)/reqs, 100*(wallNs-spanned)/wallNs)
	if spanned/wallNs < 0.9 {
		rep.note("budget: spans cover %.1f%% (< 90%%) of the time per request; the engine's event loop (heap pop, dispatch) has no span and is charged to sim.self_ns_per_event", 100*spanned/wallNs)
	}
	if err := writeJSONLines(outPath("sim-paper", seed, "spans.jsonl"), t.spans); err != nil {
		return err
	}
	if err := writeFile(outPath("sim-paper", seed, "cpu.pprof"), base.cpu); err != nil {
		return err
	}
	pl.into(rep)
	return nil
}
