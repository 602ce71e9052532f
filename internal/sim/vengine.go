package sim

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
)

// LatencyModel assigns a virtual-time cost to every message transfer. The
// units are abstract ticks; the experiments use microseconds so results
// read naturally. The paper counts hops precisely because "a hop is
// regarded as the message transfer" (§V.2.2) — a latency model turns those
// hop counts into the response times the paper discusses qualitatively
// ("ADC has longer systems response than the hashing algorithm").
type LatencyModel struct {
	// ClientProxy is the client↔proxy link latency.
	ClientProxy int64
	// ProxyProxy is the proxy↔proxy link latency.
	ProxyProxy int64
	// ProxyOrigin is the proxy↔origin link latency (usually the far,
	// expensive one).
	ProxyOrigin int64
	// Service is the per-message processing delay at the receiver.
	Service int64

	// QueueService, when true, serializes the Service component per
	// receiving node: a node processes one message at a time, so a node
	// whose arrival rate exceeds 1/Service messages per tick builds a
	// backlog and its response times grow — saturation, which the
	// default additive Service cost cannot express. An uncontended
	// message still pays exactly Service, so closed-loop single-client
	// runs are identical either way; the flag exists for open-loop
	// load-vs-latency studies (hot-proxy and origin bottlenecks).
	// Timer events (After) are not queued, only network transfers.
	QueueService bool
}

// DefaultLatencyModel is a WAN-flavoured model: proxies near the clients,
// the origin far away.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		ClientProxy: 5_000,  // 5 ms
		ProxyProxy:  10_000, // 10 ms
		ProxyOrigin: 50_000, // 50 ms
		Service:     100,    // 0.1 ms
	}
}

// cost returns the virtual delay for a transfer from a to b.
func (l LatencyModel) cost(a, b ids.NodeID) int64 {
	switch {
	case a == ids.Origin || b == ids.Origin:
		return l.ProxyOrigin + l.Service
	case a.IsClient() || b.IsClient():
		return l.ClientProxy + l.Service
	default:
		return l.ProxyProxy + l.Service
	}
}

// Clock is implemented by contexts that carry virtual time; nodes that
// measure latency (the clients) type-assert for it.
type Clock interface {
	// VNow returns the current virtual time in ticks.
	VNow() int64
}

// Scheduler is implemented by contexts that can deliver a message to the
// calling node after a virtual delay; open-loop traffic sources use it as
// their timer.
type Scheduler interface {
	// After delivers m at VNow()+delay.
	After(delay int64, m msg.Message)
}

// VEngine is the virtual-time discrete-event engine: messages are
// delivered in timestamp order, each transfer delayed by the latency
// model. Like Engine it is single-threaded and fully deterministic (ties
// break by enqueue sequence).
//
// The event queue is an inlined 4-ary min-heap over a flat []event slice:
// no container/heap indirection and no interface boxing, and the wider
// fan-out halves tree depth versus a binary heap, trading a few extra
// comparisons (cheap, cache-resident) for fewer moves and levels.
// Dispatch and message management share the dense-table/freelist design of
// Engine.
type VEngine struct {
	nodes   ids.Table[Node]
	latency LatencyModel
	pq      eventQueue
	fl      msg.Freelist
	now     int64
	seq     uint64
	// current is the node whose Handle is executing, so Send can price
	// the link correctly (the sender is implicit in sim.Context).
	current ids.NodeID

	// drop, when set, discards matching messages at Send time — fault
	// injection for probing the paper's §III.1 assumption that "we
	// don't expect the loss of messages". Timer events (After) are
	// never dropped; only network transfers are. Dropped messages are
	// never recycled: the sender may still reference them (see
	// Recycler).
	drop func(m msg.Message) bool

	// faults, when set, is the installed FaultPlan's live state: seeded
	// loss/jitter applied at Send, fail-stop crash tracking applied at
	// delivery. nil keeps every code path byte-identical to a plan-free
	// engine.
	faults *faultState

	// busy is the per-node service-completion horizon of the
	// QueueService model (nil when the model is off, which keeps the
	// delivery loop branch-free on the latency-only configuration).
	busy map[ids.NodeID]int64

	delivered uint64
	dropped   uint64

	// tracer records drop events (the engine is the only layer that sees
	// a message die); ts feeds the drop counter of the time-series
	// recorder. Both nil by default: one branch each on the drop paths,
	// nothing on the delivery path.
	tracer *obs.Tracer
	ts     *metrics.TimeSeries
}

// SetDropFilter installs a deterministic loss model: any Send for which fn
// returns true is silently discarded. The closed-loop protocol has no
// retransmission (the paper assumes lossless transport), so dropping a
// message strands its request chain — which is exactly what the fault-
// injection tests demonstrate.
func (e *VEngine) SetDropFilter(fn func(m msg.Message) bool) { e.drop = fn }

// SetTracer installs the request tracer (before Run). The engine itself
// only emits drop events; the protocol steps are traced by the nodes.
func (e *VEngine) SetTracer(t *obs.Tracer) { e.tracer = t }

// SetTimeSeries installs the time-series recorder the engine feeds drop
// counts into (before Run).
func (e *VEngine) SetTimeSeries(ts *metrics.TimeSeries) { e.ts = ts }

// traceDrop records the death of an in-flight protocol message. Timer
// messages (retry timers, sweep ticks) are not protocol steps and are
// skipped.
func (e *VEngine) traceDrop(sender ids.NodeID, m msg.Message, cause int64) {
	if e.ts != nil {
		e.ts.Drop(e.now)
	}
	if !e.tracer.Enabled(obs.KindDrop) {
		return
	}
	ev := obs.Ev(obs.KindDrop, sender)
	ev.At = e.now
	ev.To = m.Dest()
	ev.Arg = cause
	switch t := m.(type) {
	case *msg.Request:
		ev.Req, ev.Obj, ev.Hops = t.ID, t.Object, int32(t.Hops)
	case *msg.Reply:
		ev.Req, ev.Obj, ev.Hops = t.ID, t.Object, int32(t.Hops)
	default:
		return
	}
	e.tracer.Emit(ev)
}

// Dropped returns the number of discarded messages — drop-filter hits,
// fault-plan losses, and deliveries addressed to crashed nodes. In a run
// without retransmission every dropped transfer is an undelivered in-flight
// message whose request chain is stranded.
func (e *VEngine) Dropped() uint64 { return e.dropped }

// SetFaultPlan installs a deterministic failure model (loss, jitter,
// fail-stop crashes). Must be called before Run; a nil plan is a no-op.
func (e *VEngine) SetFaultPlan(p *FaultPlan) error {
	if p == nil {
		e.faults = nil
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	e.faults = newFaultState(p)
	return nil
}

// FaultStats returns the installed plan's counters (zero without a plan).
func (e *VEngine) FaultStats() FaultStats {
	if e.faults == nil {
		return FaultStats{}
	}
	return e.faults.stats
}

// NewVEngine returns an empty virtual-time engine.
func NewVEngine(latency LatencyModel) *VEngine {
	e := &VEngine{
		latency: latency,
		current: ids.None,
	}
	if latency.QueueService {
		e.busy = make(map[ids.NodeID]int64)
	}
	return e
}

// Register adds a node before Run.
func (e *VEngine) Register(n Node) error {
	if !e.nodes.Put(n.ID(), n) {
		return fmt.Errorf("sim: duplicate node %v", n.ID())
	}
	return nil
}

var (
	_ Context   = (*VEngine)(nil)
	_ Clock     = (*VEngine)(nil)
	_ Scheduler = (*VEngine)(nil)
	_ Recycler  = (*VEngine)(nil)
)

// VNow implements Clock.
func (e *VEngine) VNow() int64 { return e.now }

// Send implements Context: the message arrives after the modelled link
// latency; the hop is counted exactly as in the other engines.
func (e *VEngine) Send(m msg.Message) {
	CountHop(m)
	if e.drop != nil && e.drop(m) {
		e.dropped++
		e.traceDrop(e.current, m, obs.DropFilter)
		return
	}
	delay := e.latency.cost(e.current, m.Dest())
	if e.busy != nil {
		// Queued service: the transfer pays only the link here; the
		// Service component is charged at delivery, serialized per
		// receiver.
		delay -= e.latency.Service
	}
	if e.faults != nil {
		var ok bool
		if delay, ok = e.faults.transfer(e.current, m.Dest(), delay); !ok {
			// Lost on the wire. Like drop-filter hits, lost messages
			// are never recycled: the sender may still hold them.
			e.dropped++
			e.traceDrop(e.current, m, obs.DropLoss)
			return
		}
	}
	e.seq++
	e.pq.push(e.now+delay, e.seq, m, serviceWait)
}

// After implements Scheduler.
func (e *VEngine) After(delay int64, m msg.Message) {
	if delay < 0 {
		delay = 0
	}
	e.schedule(delay, m)
}

func (e *VEngine) schedule(delay int64, m msg.Message) {
	e.seq++
	e.pq.push(e.now+delay, e.seq, m, serviceNone)
}

// AcquireRequest implements Recycler.
func (e *VEngine) AcquireRequest() *msg.Request { return e.fl.GetRequest() }

// AcquireReply implements Recycler.
func (e *VEngine) AcquireReply() *msg.Reply { return e.fl.GetReply() }

// ReleaseRequest implements Recycler.
func (e *VEngine) ReleaseRequest(r *msg.Request) { e.fl.PutRequest(r) }

// ReleaseReply implements Recycler.
func (e *VEngine) ReleaseReply(r *msg.Reply) { e.fl.PutReply(r) }

// Delivered returns the number of messages delivered so far.
func (e *VEngine) Delivered() uint64 { return e.delivered }

// Run starts the Starter nodes in ascending NodeID order and processes
// events until the queue drains, advancing virtual time monotonically.
func (e *VEngine) Run() error {
	if e.faults != nil {
		// Crash/restart transitions enter the queue before any starter
		// event, so at equal timestamps a fault applies before the
		// messages scheduled later — a deterministic tie-break.
		for _, c := range e.faults.plan.Crashes {
			e.schedule(c.At, &faultCtl{node: c.Node})
			if c.RestartAt > 0 {
				e.schedule(c.RestartAt, &faultCtl{node: c.Node, restart: true, loseTables: c.LoseTables})
			}
		}
	}
	e.nodes.Ascending(func(id ids.NodeID, n Node) {
		if s, ok := n.(Starter); ok {
			e.current = id
			s.Start(e)
		}
	})
	e.current = ids.None
	for len(e.pq.ev) > 0 {
		top := &e.pq.ev[0]
		at, seq, m, svc := top.at, top.seq, top.m, top.svc
		e.pq.removeTop()
		e.now = at
		if e.faults != nil {
			if ctl, ok := m.(*faultCtl); ok {
				e.applyFaultCtl(ctl)
				continue
			}
			if e.faults.down[m.Dest()] {
				// Fail-stop: a crashed node receives nothing. The
				// message dies at delivery (it left the sender long
				// ago) and is never recycled.
				e.dropped++
				e.faults.stats.CrashDrops++
				e.traceDrop(ids.None, m, obs.DropCrash)
				continue
			}
		}
		if e.busy != nil && svc == serviceWait {
			// Queued service: the message starts service when the
			// receiver frees up, completes Service later, and is
			// handled at completion. Re-queuing keeps the original
			// sequence number, so per-node FIFO order is preserved.
			start := at
			if b := e.busy[m.Dest()]; b > start {
				start = b
			}
			done := start + e.latency.Service
			e.busy[m.Dest()] = done
			if done > at {
				e.pq.push(done, seq, m, serviceDone)
				continue
			}
		}
		n, ok := e.nodes.Get(m.Dest())
		if !ok {
			return fmt.Errorf("sim: message for unregistered node %v", m.Dest())
		}
		e.delivered++
		e.current = n.ID()
		n.Handle(e, m)
		e.current = ids.None
	}
	return nil
}

// applyFaultCtl executes one crash or restart transition.
func (e *VEngine) applyFaultCtl(ctl *faultCtl) {
	if !ctl.restart {
		if !e.faults.down[ctl.node] {
			e.faults.down[ctl.node] = true
			e.faults.stats.Crashes++
		}
		return
	}
	if !e.faults.down[ctl.node] {
		return // restart without a preceding crash: ignore
	}
	delete(e.faults.down, ctl.node)
	e.faults.stats.Restarts++
	if n, ok := e.nodes.Get(ctl.node); ok {
		if r, isR := n.(Restartable); isR {
			r.Restart(ctl.loseTables)
		}
	}
}

type event struct {
	at  int64
	seq uint64
	m   msg.Message
	svc service
}

// service is an event's state under the QueueService model. It is one
// byte, not two flags, so reading it never spans two separate stores.
type service uint8

const (
	// serviceNone marks events the model never serializes: timers
	// (After), and every event of an engine without the model.
	serviceNone service = iota
	// serviceWait marks a network transfer (Send) still to be assigned
	// its service slot at the receiver.
	serviceWait
	// serviceDone marks a transfer already assigned its
	// service-completion slot.
	serviceDone
)

// precedes reports whether an event at (at, seq) is delivered before e.
// That is the total order of delivery: timestamp, then enqueue sequence.
// (at, seq) pairs are unique, so the heap's internal shape never
// influences the delivery sequence — a 4-ary heap delivers byte-identical
// results to the binary container/heap it replaced.
func (e *event) precedes(at int64, seq uint64) bool {
	return e.at < at || e.at == at && e.seq < seq
}

// copyFrom copies s field by field. A whole-struct copy reads the event
// with 16-byte loads, which stall when s was written by push's narrow
// stores moments ago — the usual case for a small closed-loop queue.
func (e *event) copyFrom(s *event) {
	e.at, e.seq, e.m, e.svc = s.at, s.seq, s.m, s.svc
}

// eventQueue is a flat 4-ary min-heap over (at, seq). Children of slot i
// sit at 4i+1..4i+4, its parent at (i-1)/4.
//
// The per-event path never assembles an event on the stack: push takes the
// fields as arguments and writes them straight into the slot the sift
// ends at, and the engines read the root's fields in place before
// removeTop. A 40-byte event built from narrow stores and copied with wide
// loads costs a store-forwarding stall per event (DESIGN.md §7). Both
// sifts move a hole instead of swapping, so each level costs one slot copy.
type eventQueue struct {
	ev []event
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.ev) }

// push enqueues an event.
func (q *eventQueue) push(at int64, seq uint64, m msg.Message, svc service) {
	n := len(q.ev)
	if n == cap(q.ev) {
		q.ev = append(q.ev, event{})
	}
	ev := q.ev[:n+1]
	q.ev = ev
	// Sift the hole at n up past every parent that comes later.
	i := n
	for i > 0 {
		p := (i - 1) >> 2
		if ev[p].precedes(at, seq) {
			break
		}
		ev[i].copyFrom(&ev[p])
		i = p
	}
	s := &ev[i]
	s.at, s.seq, s.m, s.svc = at, seq, m, svc
}

// removeTop drops the earliest event. The caller reads it at ev[0] first.
func (q *eventQueue) removeTop() {
	ev := q.ev
	n := len(ev) - 1
	// Sift the hole at the root down, re-placing the last event.
	last := &ev[n]
	at, seq := last.at, last.seq
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if ev[j].precedes(ev[best].at, ev[best].seq) {
				best = j
			}
		}
		if !ev[best].precedes(at, seq) {
			break
		}
		ev[i].copyFrom(&ev[best])
		i = best
	}
	ev[i].copyFrom(last)
	*last = event{} // release the message reference
	q.ev = ev[:n]
}
