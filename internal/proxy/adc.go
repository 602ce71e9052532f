// Package proxy implements the ADC proxy agent: the event handlers of the
// paper's §IV (Receive_Request, Fig. 5; Forward_Addr, Fig. 6;
// Receive_Reply, Fig. 7) on top of the mapping tables of internal/core.
//
// Each proxy is an autonomous agent: it owns its tables, its pending-request
// set, its random generator and its logical clock, and interacts with the
// rest of the system exclusively through messages. "The algorithm for ADC
// is implemented in every running proxy with an equal setting without any
// further modifications or fine-tuning" (§IV).
package proxy

import (
	"fmt"
	"math/rand"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/sim"
)

// Config assembles one ADC proxy.
type Config struct {
	// ID is the proxy's node ID (0-based).
	ID ids.NodeID
	// Peers lists every proxy in the system including this one; random
	// forwarding selects "over the set of known proxies including
	// itself" (Fig. 6).
	Peers []ids.NodeID
	// Tables sizes the three mapping tables.
	Tables core.Config
	// Seed derives the proxy's private random stream. Two proxies in
	// one cluster receive different streams (the cluster XORs the ID in).
	Seed int64
	// Recovery enables pending-entry TTL expiry and stale-location
	// invalidation (virtual-time engine only; the zero value keeps the
	// paper-faithful protocol, where pending entries only retire via
	// backwarding replies).
	Recovery sim.Recovery
	// Replication enables the hot-object replication controller (the
	// zero value keeps the paper-faithful single-location protocol).
	Replication Replication
}

// pendingPass is the loop-detection state for one in-flight request ID:
// how many forwarding passes await their backwarding reply, and — with
// recovery enabled — when the entry expires and which learned location the
// latest pass trusted (so an unanswered forward can demote it).
type pendingPass struct {
	count    int
	expireAt int64
	obj      ids.ObjectID
	learned  ids.NodeID
}

// expiryRec is one scheduled pending-entry expiry check. Records enter the
// queue in expireAt order (the virtual clock is monotonic and the TTL is
// constant), so a plain FIFO suffices — no heap, no map iteration, fully
// deterministic.
type expiryRec struct {
	id ids.RequestID
	at int64
}

// sweepTimer is the proxy's private pending-expiry timer message. The
// proxy keeps at most one armed sweep; the timer drives virtual time
// forward past the last request, so even passes stranded at the very end
// of a run expire and PendingLen drains to zero.
type sweepTimer struct{ to ids.NodeID }

// Dest implements msg.Message.
func (t *sweepTimer) Dest() ids.NodeID { return t.to }

// ADC is one Adaptive Distributed Caching proxy agent.
type ADC struct {
	id     ids.NodeID
	peers  []ids.NodeID
	tables *core.Tables
	rng    *rand.Rand

	// localTime is "the counter for the received requests [which]
	// represents the local clock of the proxy" (§IV.1).
	localTime int64

	// pending counts, per in-flight request ID, how many times this
	// proxy has forwarded it and not yet seen the reply pass back. A
	// request arriving while pending is a loop (§III.1). Counts (not
	// booleans) handle self-forwarding, where the same proxy legally
	// appears twice on the path.
	pending map[ids.RequestID]pendingPass

	// recovery state: the FIFO of expiry checks (head-indexed so pops
	// are O(1) without reallocating) and the single armed sweep timer.
	recovery   sim.Recovery
	tablesCfg  core.Config
	expiryQ    []expiryRec
	expiryHead int
	sweep      *sweepTimer
	sweepArmed bool

	stats metrics.ProxyStats

	// replica is the hot-object replication controller (nil = off; every
	// guard is a single branch on the hot path, keeping stock runs
	// byte-identical).
	replica *replicator

	// tracer is the optional request tracer (nil = off; every guard is a
	// single branch on the hot path).
	tracer *obs.Tracer
}

var (
	_ sim.Node        = (*ADC)(nil)
	_ sim.Restartable = (*ADC)(nil)
)

// New builds an ADC proxy.
func New(cfg Config) (*ADC, error) {
	if !cfg.ID.IsProxy() {
		return nil, fmt.Errorf("proxy: %v is not a proxy ID", cfg.ID)
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("proxy: peer set must not be empty")
	}
	cfg.Recovery = cfg.Recovery.Normalize()
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, fmt.Errorf("proxy %v: %w", cfg.ID, err)
	}
	cfg.Replication = cfg.Replication.Normalize()
	if err := cfg.Replication.Validate(); err != nil {
		return nil, fmt.Errorf("proxy %v: %w", cfg.ID, err)
	}
	tables, err := core.NewTables(cfg.Tables)
	if err != nil {
		return nil, fmt.Errorf("proxy %v: %w", cfg.ID, err)
	}
	peers := make([]ids.NodeID, len(cfg.Peers))
	copy(peers, cfg.Peers)
	p := &ADC{
		id:        cfg.ID,
		peers:     peers,
		tables:    tables,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ (int64(cfg.ID)+1)*0x9E3779B9)),
		pending:   make(map[ids.RequestID]pendingPass),
		recovery:  cfg.Recovery,
		tablesCfg: cfg.Tables,
		sweep:     &sweepTimer{to: cfg.ID},
	}
	if cfg.Replication.Enabled {
		p.replica = newReplicator(cfg.Replication, peers)
	}
	return p, nil
}

// ID implements sim.Node.
func (p *ADC) ID() ids.NodeID { return p.id }

// AddPeer introduces a newly joined proxy to the random-forwarding peer
// set (infrastructure growth, the paper's unused §V.1 parameter). The
// proxy needs no other state: its mapping tables learn the newcomer's
// objects through ordinary backwarding. Safe only between messages —
// i.e. from the sequential engine's driving thread.
func (p *ADC) AddPeer(id ids.NodeID) {
	for _, q := range p.peers {
		if q == id {
			return
		}
	}
	p.peers = append(p.peers, id)
	if p.replica != nil {
		for int(id) >= len(p.replica.load) {
			p.replica.load = append(p.replica.load, 0)
		}
	}
}

// Tables exposes the mapping tables for dumps, tests and metrics.
func (p *ADC) Tables() *core.Tables { return p.tables }

// SetTracer installs the request tracer (before the run starts).
func (p *ADC) SetTracer(t *obs.Tracer) { p.tracer = t }

// Stats returns a snapshot of the proxy's counters.
func (p *ADC) Stats() metrics.ProxyStats { return p.stats }

// LocalTime returns the proxy's logical clock.
func (p *ADC) LocalTime() int64 { return p.localTime }

// PendingLen returns the number of in-flight forwarded requests (tests
// assert it drains to zero — invariant 4 of DESIGN.md §10).
func (p *ADC) PendingLen() int { return len(p.pending) }

// Restart implements sim.Restartable: a fail-stop restart always loses the
// volatile request state (pending passes and the armed sweep timer died
// with the process; live chains elsewhere will surface as unexpected
// replies), and a cold restart additionally rebuilds the mapping tables
// empty. Counters and the random stream survive: they belong to the
// experiment, not the process.
func (p *ADC) Restart(loseTables bool) {
	p.pending = make(map[ids.RequestID]pendingPass)
	p.expiryQ = nil
	p.expiryHead = 0
	p.sweepArmed = false
	if p.replica != nil {
		// Controller state is volatile: hit counts, load estimates and
		// replica tracking died with the process. Table state (replica
		// sets included) follows the loseTables flag below.
		p.replica = newReplicator(p.replica.cfg, p.peers)
	}
	if loseTables {
		// The config was validated at construction, so this cannot fail.
		if t, err := core.NewTables(p.tablesCfg); err == nil {
			p.tables = t
		}
	}
}

// Handle implements sim.Node.
func (p *ADC) Handle(ctx sim.Context, m msg.Message) {
	switch t := m.(type) {
	case *msg.Request:
		p.receiveRequest(ctx, t)
	case *msg.Reply:
		p.receiveReply(ctx, t)
	case *sweepTimer:
		p.handleSweep(ctx)
	}
}

// receiveRequest is the paper's Receive_Request() (Fig. 5).
func (p *ADC) receiveRequest(ctx sim.Context, req *msg.Request) {
	p.localTime++
	p.stats.Requests++
	if p.replica != nil && p.localTime%p.replica.cfg.Window == 0 {
		p.rollWindow()
	}

	// One table probe serves the whole event: the hit test, the hit
	// path's Update and the miss path's Forward_Addr all use this entry.
	entry, kind := p.tables.Lookup(req.Object)
	if kind == core.KindCaching {
		// Local hit: update the entry to point at ourselves and
		// start backwarding immediately.
		p.stats.LocalHits++
		prevLoc := ids.None
		if p.replica != nil {
			p.noteHit(req.Object)
			prevLoc = entry.Location
		}
		out := p.tables.UpdateEntry(req.Object, entry, p.id, p.localTime)
		if p.tracer.Enabled(obs.KindHit) {
			e := obs.Ev(obs.KindHit, p.id)
			e.At = sim.TraceNow(ctx)
			e.Req = req.ID
			e.Obj = req.Object
			e.Loc = p.id
			e.Hops = int32(req.Hops)
			e.Arg = out.TraceArg()
			p.tracer.Emit(e)
		}
		p.recordOutcome(out)
		rep := sim.Resolve(ctx, req)
		rep.Resolver = p.id
		rep.Cached = true
		if p.replica != nil {
			// rep.Object, not req.Object: Resolve consumed the request.
			p.maybePush(rep.Object, prevLoc, rep)
		}
		next, _ := rep.NextBackward()
		rep.To = next
		ctx.Send(rep)
		return
	}

	// Miss: loop detection looks at the state before this arrival, then
	// Store_Backwarding registers the pass so the reply can retrace it.
	pass := p.pending[req.ID]
	looped := pass.count > 0
	atMax := req.AtMaxHops()
	req.Path = append(req.Path, p.id)
	req.Sender = p.id

	to := ids.Origin
	learned := ids.None
	reason := obs.ReasonMaxHops
	if looped || atMax {
		if looped {
			p.stats.LoopsDetected++
			reason = obs.ReasonLoop
		}
		p.stats.ForwardOrigin++
	} else {
		var viaTable bool
		to, viaTable = p.forwardAddr(entry)
		switch {
		case viaTable && to == ids.Origin:
			reason = obs.ReasonSelfOrigin
		case viaTable:
			reason = obs.ReasonLearned
		default:
			reason = obs.ReasonRandom
		}
		if viaTable && to != ids.Origin {
			learned = to
		}
	}

	pass.count++
	if p.recovery.Enabled {
		pass.obj = req.Object
		pass.learned = learned
		if clk, ok := ctx.(sim.Clock); ok {
			pass.expireAt = clk.VNow() + p.recovery.PendingTTL
			p.pushExpiry(ctx, req.ID, pass.expireAt)
		}
	}
	p.pending[req.ID] = pass

	req.To = to
	if p.tracer.Enabled(obs.KindForward) {
		e := obs.Ev(obs.KindForward, p.id)
		e.At = sim.TraceNow(ctx)
		e.Req = req.ID
		e.Obj = req.Object
		e.To = to
		e.Hops = int32(req.Hops)
		e.Arg = reason
		p.tracer.Emit(e)
	}
	ctx.Send(req)
}

// forwardAddr is the paper's Forward_Addr() (Fig. 6) over the request's
// mapping entry (nil when no table knows the object): use the learned
// location when one exists, otherwise pick a random peer (including
// ourselves). A learned location equal to our own ID is a THIS entry whose
// object is not cached here, which means this proxy is responsible and the
// unresolved query goes to the origin server (§III.3.2). viaTable reports
// whether a mapping entry directed the forward, so the recovery layer
// knows which pending passes trusted a learned location.
func (p *ADC) forwardAddr(entry *core.Entry) (to ids.NodeID, viaTable bool) {
	if p.replica != nil {
		return p.forwardAddrReplicated(entry)
	}
	if entry != nil {
		if entry.Location == p.id {
			p.stats.ForwardOrigin++
			return ids.Origin, true
		}
		p.stats.ForwardLearned++
		return entry.Location, true
	}
	p.stats.ForwardRandom++
	return p.peers[p.rng.Intn(len(p.peers))], false
}

// receiveReply is the paper's Receive_Reply() (Fig. 7).
func (p *ADC) receiveReply(ctx sim.Context, rep *msg.Reply) {
	p.stats.RepliesSeen++

	// Defensive: a reply whose pending pass is gone — expired by the
	// recovery TTL, arriving at a restarted proxy, or a duplicate from a
	// retransmitted chain — is counted and must never underflow or
	// resurrect loop-detection state. It still carries real data, so the
	// table update and the backwarding forward below proceed normally
	// (routing needs only the reply's own path).
	pass, live := p.pending[rep.ID]
	if !live {
		p.stats.UnexpectedReplies++
	}

	// Data straight from the origin server: the first proxy on the
	// backwarding path claims the resolver slot.
	if rep.Resolver == ids.None {
		rep.Resolver = p.id
	}

	// Learn the agreed location; this may promote the entry through the
	// tables and into the cache (the object's data is passing by right
	// now, so caching is possible exactly here).
	learned := rep.Resolver
	out := p.tables.Update(rep.Object, rep.Resolver, p.localTime)
	p.recordOutcome(out)
	cached := out.To() == core.KindCaching
	if p.replica != nil {
		// The controller may adopt or shed the object; ask again.
		p.learnReplicas(rep)
		cached = p.tables.IsCached(rep.Object)
	}

	// "This focus on only one caching location is necessary to allow
	// the system to agree faster on one location" (§IV.2): the first
	// cache-holding proxy on the path claims resolver + cached.
	if !rep.Cached && cached {
		rep.Resolver = p.id
		rep.Cached = true
		if p.replica != nil {
			p.maybePush(rep.Object, ids.None, rep)
		}
	}

	// Retire one stored backwarding pass.
	if live {
		if pass.count > 1 {
			pass.count--
			p.pending[rep.ID] = pass
		} else {
			delete(p.pending, rep.ID)
		}
	}

	next, _ := rep.NextBackward()
	rep.To = next
	if p.tracer.Enabled(obs.KindBackward) {
		// Loc is the location Update learned into the tables (the
		// resolver as received, post origin-claim), which is what the
		// convergence analysis models as this proxy's belief.
		e := obs.Ev(obs.KindBackward, p.id)
		e.At = sim.TraceNow(ctx)
		e.Req = rep.ID
		e.Obj = rep.Object
		e.To = next
		e.Loc = learned
		e.Hops = int32(rep.Hops)
		e.Arg = out.TraceArg()
		p.tracer.Emit(e)
	}
	ctx.Send(rep)
}

// pushExpiry queues one expiry check and arms the sweep timer when none is
// armed. Queue order equals expireAt order, so the armed timer always
// covers the head record.
func (p *ADC) pushExpiry(ctx sim.Context, id ids.RequestID, at int64) {
	p.expiryQ = append(p.expiryQ, expiryRec{id: id, at: at})
	if !p.sweepArmed {
		if sched, ok := ctx.(sim.Scheduler); ok {
			sched.After(p.recovery.PendingTTL, p.sweep)
			p.sweepArmed = true
		}
	}
}

// handleSweep fires the armed expiry timer: retire everything due, then
// re-arm for the next queued record (if any). The sweep chain keeps the
// engine's event queue alive until all pending state has drained.
func (p *ADC) handleSweep(ctx sim.Context) {
	p.sweepArmed = false
	clk, ok := ctx.(sim.Clock)
	if !ok || !p.recovery.Enabled {
		return
	}
	now := clk.VNow()
	p.expirePending(now)
	if p.expiryHead < len(p.expiryQ) {
		if sched, isSched := ctx.(sim.Scheduler); isSched {
			d := p.expiryQ[p.expiryHead].at - now
			if d < 1 {
				d = 1
			}
			sched.After(d, p.sweep)
			p.sweepArmed = true
		}
	}
}

// expirePending retires every pending entry due at now. An entry whose
// expireAt is newer than its queued record was refreshed by a later pass —
// the later record is still queued and will judge it then. Expired entries
// surrender all passes at once (the chain is dead; partial retirement
// would leave the remainder leaking), and when the latest pass had trusted
// a learned location that the tables still hold, that mapping is demoted:
// the unanswered forward is evidence the location is stale (crashed or
// unreachable), and dropping it falls forwarding back to random selection
// so backwarding can re-converge on a live resolver.
func (p *ADC) expirePending(now int64) {
	for p.expiryHead < len(p.expiryQ) && p.expiryQ[p.expiryHead].at <= now {
		rec := p.expiryQ[p.expiryHead]
		p.popExpiry()
		pass, ok := p.pending[rec.id]
		if !ok || pass.expireAt > now {
			continue
		}
		delete(p.pending, rec.id)
		p.stats.ExpiredPending += uint64(pass.count)
		if p.tracer.Enabled(obs.KindExpire) {
			e := obs.Ev(obs.KindExpire, p.id)
			e.At = now
			e.Req = rec.id
			e.Obj = pass.obj
			e.Arg = int64(pass.count)
			p.tracer.Emit(e)
		}
		if pass.learned != ids.None && pass.learned != p.id {
			if loc, has := p.tables.ForwardLocation(pass.obj); has && loc == pass.learned {
				if p.tables.Invalidate(pass.obj) {
					p.stats.StaleInvalidated++
					if p.tracer.Enabled(obs.KindInvalidate) {
						e := obs.Ev(obs.KindInvalidate, p.id)
						e.At = now
						e.Req = rec.id
						e.Obj = pass.obj
						e.Loc = pass.learned
						p.tracer.Emit(e)
					}
				}
			}
		}
	}
}

// popExpiry advances the queue head, compacting the backing slice once
// half of it is dead so memory stays bounded without per-pop copying.
func (p *ADC) popExpiry() {
	p.expiryHead++
	if p.expiryHead >= 64 && p.expiryHead*2 >= len(p.expiryQ) {
		n := copy(p.expiryQ, p.expiryQ[p.expiryHead:])
		p.expiryQ = p.expiryQ[:n]
		p.expiryHead = 0
	}
}

func (p *ADC) recordOutcome(out core.Outcome) {
	if out.To() == core.KindCaching && out.From() != core.KindCaching {
		p.stats.CacheInsertions++
	}
	if out.CacheEvicted() {
		p.stats.CacheEvictions++
	}
}
