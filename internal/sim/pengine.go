package sim

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
)

// PEngine is the sharded parallel virtual-time engine: the same
// discrete-event semantics as VEngine — messages delivered in (timestamp,
// enqueue sequence) order, transfers delayed by the latency model — but
// executed across per-core shards so one simulation can hold tens of
// thousands of proxies and millions of clients.
//
// Every node is owned by exactly one shard (ids.ShardMap partitions the
// NodeID space), and each shard owns a private flat 4-ary event heap, a
// message freelist, and its own virtual clock. Execution proceeds in
// cohorts: the engine repeatedly finds the minimum pending timestamp t and
// lets every shard holding events at t execute them concurrently. That is
// safe because handlers only touch their own node's state (the Node
// contract all in-repo agents follow — each proxy owns its tables, rng and
// stats and interacts with the world exclusively through messages), so
// cohort members at different nodes cannot observe each other regardless
// of interleaving.
//
// Determinism is exact, not statistical: the engine is gated on producing
// byte-identical experiment outputs to VEngine at any shard count. The
// mechanism is the emission merge. During a cohort, Sends are not pushed
// into heaps immediately; each shard buffers them as (parent sequence
// number, emission index) pairs — the shard pops its cohort events in
// ascending sequence order, so each buffer comes out already sorted. When
// the cohort completes, the buffers are merged across shards in (parent
// seq, emission index) order and assigned consecutive global sequence
// numbers. Because the sequential engine delivers a timestamp cohort in
// exactly ascending sequence order and assigns child sequence numbers in
// exactly emission order, the merged assignment reproduces VEngine's
// enqueue counter value for value — and with identical (at, seq) pairs on
// every event, delivery order (and therefore every result byte) is
// identical. Zero-delay emissions re-enter the current timestamp as a
// follow-up cohort, which again matches the sequential pop order.
//
// Cohorts that live entirely on one shard execute inline on the
// coordinator goroutine with no synchronization at all, so sparse regimes
// (few nodes, closed-loop traffic) degrade to roughly sequential speed;
// wide regimes (many clients injecting at once) fan out across all shards
// and amortize the two channel rendezvous per cohort over thousands to
// millions of events. Large merges are parallelized too: each shard ranks
// its own emissions against the other shards' sorted buffers (two-pointer
// counting), then each destination shard pushes its incoming events —
// both phases produce the same sequence values as the serial merge.
//
// PEngine supports the lossless protocol only: fault plans, drop filters,
// tracing and time-series recording are features of the sequential
// engines (a global loss rng drawn in delivery order cannot be reproduced
// under sharded execution without giving up byte-identical results). The
// cluster layer enforces this at validation time.
type PEngine struct {
	latency LatencyModel
	part    ids.ShardMap
	nodes   ids.Table[Node] // read-only while running
	shards  []*pshard

	// seq is the global enqueue counter, identical step for step to
	// VEngine's. Only the coordinator advances it, at cohort merges.
	seq uint64

	// starting marks the single-threaded Start phase, where emissions
	// bypass the cohort buffers and schedule directly (exactly like
	// VEngine's pre-run Sends).
	starting bool
}

// parallelMergeMin is the cohort emission count below which the serial
// S-way merge on the coordinator beats the two extra barrier rounds of the
// parallel rank+push path. It is a variable only so tests can force the
// parallel path on small workloads; both paths assign identical sequence
// numbers, so the setting never affects results.
var parallelMergeMin = 2048

// pcmd is one coordinator→worker phase command.
type pcmd struct {
	phase pphase
	t     int64  // phaseExec: the cohort timestamp
	base  uint64 // phaseRank: first sequence number of the cohort's emissions
}

type pphase int8

const (
	phaseExec pphase = iota
	phaseRank
	phasePush
)

// pemit is one buffered emission awaiting the cohort merge.
type pemit struct {
	pseq uint64 // sequence number of the emitting (parent) event
	seq  uint64 // assigned global sequence number (rank phase)
	at   int64  // absolute delivery time
	dest int32  // destination shard
	m    msg.Message
}

// pshard is one shard: a slice of the node space with its own heap,
// freelist and clock. It implements the full node-facing context surface
// (Context, Clock, Scheduler, Recycler), so agents cannot tell it apart
// from VEngine.
type pshard struct {
	eng *PEngine
	idx int

	pq eventQueue
	fl msg.Freelist

	now     int64
	current ids.NodeID
	curSeq  uint64

	// emits buffers the cohort's Sends in (pseq, emission index) order.
	emits []pemit

	delivered uint64
	err       error

	// mergeHead is the coordinator's cursor into emits during the serial
	// merge.
	mergeHead int

	cmd  chan pcmd
	done chan struct{}
}

var (
	_ Context   = (*pshard)(nil)
	_ Clock     = (*pshard)(nil)
	_ Scheduler = (*pshard)(nil)
	_ Recycler  = (*pshard)(nil)
)

// NewPEngine returns an empty parallel engine over the given partition.
func NewPEngine(latency LatencyModel, part ids.ShardMap) *PEngine {
	e := &PEngine{latency: latency, part: part}
	e.shards = make([]*pshard, part.Shards())
	for i := range e.shards {
		e.shards[i] = &pshard{
			eng:     e,
			idx:     i,
			current: ids.None,
			cmd:     make(chan pcmd, 1),
			done:    make(chan struct{}, 1),
		}
	}
	return e
}

// Shards returns the shard count (test and progress-display support).
func (e *PEngine) Shards() int { return len(e.shards) }

// Register adds a node before Run. The owning shard is derived from the
// partition; registration itself is single-threaded.
func (e *PEngine) Register(n Node) error {
	if !e.nodes.Put(n.ID(), n) {
		return fmt.Errorf("sim: duplicate node %v", n.ID())
	}
	return nil
}

// Delivered returns the number of delivered messages, summed across
// shards. Call it only after Run has returned.
func (e *PEngine) Delivered() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.delivered
	}
	return n
}

// Run starts the Starter nodes in ascending NodeID order (single-threaded,
// exactly like the sequential engines) and then processes timestamp
// cohorts until every shard's queue drains.
func (e *PEngine) Run() error {
	e.starting = true
	e.nodes.Ascending(func(id ids.NodeID, n Node) {
		if st, ok := n.(Starter); ok {
			s := e.shards[e.part.ShardOf(id)]
			s.current = id
			st.Start(s)
			s.current = ids.None
		}
	})
	e.starting = false

	parallel := len(e.shards) > 1
	if parallel {
		for _, s := range e.shards {
			go s.loop()
		}
		defer func() {
			for _, s := range e.shards {
				close(s.cmd)
			}
		}()
	}

	active := make([]*pshard, 0, len(e.shards))
	for {
		// Cohort pick: the minimum pending timestamp across shards.
		var t int64
		found := false
		for _, s := range e.shards {
			if s.pq.Len() > 0 {
				if h := s.pq.ev[0].at; !found || h < t {
					t, found = h, true
				}
			}
		}
		if !found {
			return nil
		}
		active = active[:0]
		for _, s := range e.shards {
			if s.pq.Len() > 0 && s.pq.ev[0].at == t {
				active = append(active, s)
			}
		}

		// Execute the cohort. A single-shard cohort runs inline on this
		// goroutine — no channel round trip — which keeps sparse runs at
		// sequential speed.
		if len(active) == 1 {
			active[0].exec(t)
		} else {
			for _, s := range active {
				s.cmd <- pcmd{phase: phaseExec, t: t}
			}
			for _, s := range active {
				<-s.done
			}
		}
		for _, s := range active {
			if s.err != nil {
				return s.err
			}
		}

		// Merge the cohort's emissions into the shard heaps, assigning
		// the exact sequence numbers the sequential engine would have.
		total := 0
		for _, s := range active {
			total += len(s.emits)
		}
		if total == 0 {
			continue
		}
		if !parallel || total < parallelMergeMin {
			e.mergeSerial()
		} else {
			base := e.seq + 1
			for _, s := range e.shards {
				s.cmd <- pcmd{phase: phaseRank, base: base}
			}
			for _, s := range e.shards {
				<-s.done
			}
			for _, s := range e.shards {
				s.cmd <- pcmd{phase: phasePush}
			}
			for _, s := range e.shards {
				<-s.done
			}
			e.seq += uint64(total)
			for _, s := range e.shards {
				// Keep the capacity; stale message pointers in the spare
				// slots alias freelist entries and are overwritten next
				// cohort.
				s.emits = s.emits[:0]
			}
		}
	}
}

// mergeSerial drains every shard's emission buffer in (pseq, emission
// index) order, assigning consecutive sequence numbers and pushing each
// event into its destination heap. pseq values are globally unique (each
// parent event executes on exactly one shard), so picking the smallest
// head is a total, deterministic order.
func (e *PEngine) mergeSerial() {
	for {
		var best *pshard
		for _, s := range e.shards {
			if s.mergeHead < len(s.emits) {
				if best == nil || s.emits[s.mergeHead].pseq < best.emits[best.mergeHead].pseq {
					best = s
				}
			}
		}
		if best == nil {
			break
		}
		em := &best.emits[best.mergeHead]
		best.mergeHead++
		e.seq++
		e.shards[em.dest].pq.push(em.at, e.seq, em.m, serviceNone)
		em.m = nil
	}
	for _, s := range e.shards {
		s.mergeHead = 0
		s.emits = s.emits[:0]
	}
}

// loop is the worker goroutine: it executes phase commands until the
// coordinator closes the channel. All shard state is handed back and forth
// through the cmd/done rendezvous, which provides the happens-before edges
// that keep the engine race-clean.
func (s *pshard) loop() {
	for cmd := range s.cmd {
		switch cmd.phase {
		case phaseExec:
			s.exec(cmd.t)
		case phaseRank:
			s.rank(cmd.base)
		case phasePush:
			s.pushMerged()
		}
		s.done <- struct{}{}
	}
}

// exec delivers every queued event with timestamp t, in ascending sequence
// order, buffering emissions for the merge.
func (s *pshard) exec(t int64) {
	s.now = t
	for s.pq.Len() > 0 && s.pq.ev[0].at == t {
		seq, m := s.pq.ev[0].seq, s.pq.ev[0].m
		s.pq.removeTop()
		n, ok := s.eng.nodes.Get(m.Dest())
		if !ok {
			s.err = fmt.Errorf("sim: message for unregistered node %v", m.Dest())
			return
		}
		s.delivered++
		s.curSeq = seq
		s.current = n.ID()
		n.Handle(s, m)
		s.current = ids.None
	}
}

// rank assigns each of this shard's buffered emissions its global sequence
// number: base plus its rank in the cross-shard (pseq, emission index)
// merge order. The rank is the emission's own index plus, per foreign
// shard, the count of foreign emissions with smaller pseq — a two-pointer
// sweep over each sorted buffer. The values are identical to what
// mergeSerial would assign.
func (s *pshard) rank(base uint64) {
	mine := s.emits
	for i := range mine {
		mine[i].seq = base + uint64(i)
	}
	for _, o := range s.eng.shards {
		if o == s || len(o.emits) == 0 {
			continue
		}
		other := o.emits
		j := 0
		for i := range mine {
			for j < len(other) && other[j].pseq < mine[i].pseq {
				j++
			}
			mine[i].seq += uint64(j)
		}
	}
}

// pushMerged pushes every cohort emission destined to this shard into its
// heap. Insertion order does not matter for determinism: (at, seq) pairs
// are unique, so the pop sequence is independent of heap shape.
func (s *pshard) pushMerged() {
	for _, o := range s.eng.shards {
		for i := range o.emits {
			if em := &o.emits[i]; em.dest == int32(s.idx) {
				s.pq.push(em.at, em.seq, em.m, serviceNone)
			}
		}
	}
}

// VNow implements Clock.
func (s *pshard) VNow() int64 { return s.now }

// Send implements Context: the transfer is priced by the latency model and
// buffered for the cohort merge (or scheduled directly during Start).
func (s *pshard) Send(m msg.Message) {
	CountHop(m)
	s.schedule(s.eng.latency.cost(s.current, m.Dest()), m)
}

// After implements Scheduler.
func (s *pshard) After(delay int64, m msg.Message) {
	if delay < 0 {
		delay = 0
	}
	s.schedule(delay, m)
}

func (s *pshard) schedule(delay int64, m msg.Message) {
	e := s.eng
	if e.starting {
		// Single-threaded Start phase: assign the global sequence number
		// immediately, exactly as VEngine does for pre-run Sends.
		e.seq++
		e.shards[e.part.ShardOf(m.Dest())].pq.push(s.now+delay, e.seq, m, serviceNone)
		return
	}
	s.emits = append(s.emits, pemit{
		pseq: s.curSeq,
		at:   s.now + delay,
		dest: int32(e.part.ShardOf(m.Dest())),
		m:    m,
	})
}

// AcquireRequest implements Recycler.
func (s *pshard) AcquireRequest() *msg.Request { return s.fl.GetRequest() }

// AcquireReply implements Recycler.
func (s *pshard) AcquireReply() *msg.Reply { return s.fl.GetReply() }

// ReleaseRequest implements Recycler.
func (s *pshard) ReleaseRequest(r *msg.Request) { s.fl.PutRequest(r) }

// ReleaseReply implements Recycler.
func (s *pshard) ReleaseReply(r *msg.Reply) { s.fl.PutReply(r) }
