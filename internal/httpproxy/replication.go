package httpproxy

import (
	"net/http"
	"strconv"
	"strings"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/proxy"
)

// Hot-object replication over HTTP — the real-network mirror of the
// simulator's controller (internal/proxy/replication.go, the reference
// implementation; the protocol rationale lives there and in DESIGN.md).
// The mechanism maps one-to-one:
//
//   - The simulator piggybacks pushes and advertisements on backwarding
//     replies; here they ride the HTTP response headers, which retrace the
//     chain of waiting handlers just like the backwarding path.
//   - Reply.Replicas/Replicate/AvgHint become X-Adc-Replicas,
//     X-Adc-Replicate and X-Adc-Avg-Hint.
//   - The reply path's "first backwarding hop" (the recent requester a
//     push targets) is the downstream proxy, identified by X-Adc-Sender
//     on the upstream fetch.
//
// All controller state is guarded by the proxy's table lock (p.mu); the
// methods below require it held.

// Replication protocol headers (in addition to the stock ADC set).
const (
	// HeaderSender carries the forwarding proxy's ID on upstream
	// fetches, so a holder knows which recent requester to push to.
	HeaderSender = "X-Adc-Sender"
	// HeaderReplicas advertises the resolver's replica set on replies as
	// a comma-separated list of proxy IDs (may be empty).
	HeaderReplicas = "X-Adc-Replicas"
	// HeaderReplicate marks a reply whose replica advertisement is
	// authoritative (a holder spoke); set to "1".
	HeaderReplicate = "X-Adc-Replicate"
	// HeaderAvgHint carries the holder's moving-average inter-request
	// gap, the adoption seed for pushed replicas.
	HeaderAvgHint = "X-Adc-Avg-Hint"
)

// replicator is the per-proxy controller state, mirroring the simulator's
// struct of the same name. Maps are never iterated and slices kept sorted,
// so behaviour is independent of Go's map ordering.
type replicator struct {
	cfg proxy.Replication

	// hot counts local cache hits per object within the current window;
	// reset at every roll.
	hot map[ids.ObjectID]int

	// tracked is the sorted set of objects with replication involvement
	// here; trackedSet mirrors it for O(1) membership.
	tracked    []ids.ObjectID
	trackedSet map[ids.ObjectID]struct{}

	// held marks objects stored here as pushed replicas (ReplicaHits).
	held map[ids.ObjectID]struct{}

	// load estimates recent outgoing demand per peer (indexed by
	// NodeID), halved each window — the power-of-two-choices signal.
	load []uint64
}

func newReplicator(cfg proxy.Replication) *replicator {
	return &replicator{
		cfg:        cfg,
		hot:        make(map[ids.ObjectID]int),
		trackedSet: make(map[ids.ObjectID]struct{}),
		held:       make(map[ids.ObjectID]struct{}),
	}
}

// sizeLoad (re)sizes the per-peer load table for the given peer set.
func (r *replicator) sizeLoad(peers []ids.NodeID) {
	max := ids.NodeID(0)
	for _, p := range peers {
		if p > max {
			max = p
		}
	}
	if n := int(max) + 1; n > len(r.load) {
		r.load = append(r.load, make([]uint64, n-len(r.load))...)
	}
}

func (r *replicator) track(obj ids.ObjectID) {
	if _, ok := r.trackedSet[obj]; ok {
		return
	}
	r.trackedSet[obj] = struct{}{}
	i := 0
	for i < len(r.tracked) && r.tracked[i] < obj {
		i++
	}
	r.tracked = append(r.tracked, 0)
	copy(r.tracked[i+1:], r.tracked[i:])
	r.tracked[i] = obj
}

func (r *replicator) untrack(i int) {
	delete(r.trackedSet, r.tracked[i])
	delete(r.held, r.tracked[i])
	r.tracked = append(r.tracked[:i], r.tracked[i+1:]...)
}

func (r *replicator) addLoad(to ids.NodeID) {
	if int(to) < len(r.load) {
		r.load[to]++
	}
}

func (r *replicator) loadOf(n ids.NodeID) uint64 {
	if int(n) < len(r.load) {
		return r.load[n]
	}
	return 0
}

// advertisement is a holder's replica-set announcement, captured under the
// lock and written to response headers after it is released.
type advertisement struct {
	replicate bool
	replicas  []ids.NodeID
	avg       int64
}

// set writes the advertisement headers.
func (a advertisement) set(h http.Header) {
	if !a.replicate {
		return
	}
	h.Set(HeaderReplicate, "1")
	h.Set(HeaderReplicas, formatNodeList(a.replicas))
	if a.avg > 0 {
		h.Set(HeaderAvgHint, strconv.FormatInt(a.avg, 10))
	}
}

// propagateReplication copies an upstream reply's replica advertisement to
// the downstream response, so every proxy on the chain sees it — the HTTP
// equivalent of the reply retracing the backwarding path.
func propagateReplication(dst http.Header, src http.Header) {
	if src.Get(HeaderReplicate) != "1" {
		return
	}
	dst.Set(HeaderReplicate, "1")
	dst.Set(HeaderReplicas, src.Get(HeaderReplicas))
	if v := src.Get(HeaderAvgHint); v != "" {
		dst.Set(HeaderAvgHint, v)
	}
}

// formatNodeList renders a sorted node set as "Proxy[0],Proxy[2]".
func formatNodeList(nodes []ids.NodeID) string {
	var b strings.Builder
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n.String())
	}
	return b.String()
}

// parseNodeList reverses formatNodeList, dropping unparseable segments.
func parseNodeList(s string) []ids.NodeID {
	if s == "" {
		return nil
	}
	var out []ids.NodeID
	for _, part := range strings.Split(s, ",") {
		if n := parseNodeID(part); n != ids.None {
			out = append(out, n)
		}
	}
	return out
}

// noteHitLocked records a local cache hit for the controller.
func (p *Proxy) noteHitLocked(obj ids.ObjectID) {
	r := p.replica
	r.hot[obj]++
	if _, held := r.held[obj]; held {
		p.stats.ReplicaHits++
	}
}

// maybePushLocked decides, on the local-hit path, whether to push a replica
// of obj to the downstream requester (the proxy named by X-Adc-Sender), and
// builds the advertisement the response will carry. prevLoc is the entry's
// Location before the hit-path Update rewrote it to this proxy. Mirrors the
// simulator's maybePush.
func (p *Proxy) maybePushLocked(obj ids.ObjectID, prevLoc, target ids.NodeID) advertisement {
	r := p.replica
	if prevLoc.IsProxy() && prevLoc != p.id {
		if p.tables.AddReplica(obj, prevLoc, r.cfg.MaxReplicas) {
			r.track(obj)
		}
	}
	if r.hot[obj] >= r.cfg.HotThreshold && target.IsProxy() && target != p.id {
		if p.tables.AddReplica(obj, target, r.cfg.MaxReplicas) {
			p.stats.ReplicaPushes++
			r.track(obj)
		}
	}
	var adv advertisement
	if _, replicas, ok := p.tables.ForwardSet(obj); ok {
		// A holder's view of the set is authoritative: advertise even
		// when empty so stale remote beliefs are cleared. Copy — the
		// headers are written after p.mu is released.
		adv.replicate = true
		adv.replicas = append(adv.replicas, replicas...)
		if avg, ok := p.tables.AvgOf(obj); ok {
			adv.avg = avg
		}
		if len(replicas) > 0 {
			r.track(obj)
		}
	}
	return adv
}

// learnReplicasLocked folds an upstream reply's advertised replica set into
// the local entry and, when this proxy is a designated holder, adopts the
// passing payload into the store. Mirrors the simulator's learnReplicas;
// only authoritative (X-Adc-Replicate) replies touch the learned set.
func (p *Proxy) learnReplicasLocked(obj ids.ObjectID, resolver ids.NodeID, hdr http.Header, body []byte) {
	if hdr.Get(HeaderReplicate) != "1" {
		return
	}
	r := p.replica
	replicas := parseNodeList(hdr.Get(HeaderReplicas))
	avg, _ := strconv.ParseInt(hdr.Get(HeaderAvgHint), 10, 64)
	if core.ContainsNode(replicas, p.id) && !p.tables.IsCached(obj) {
		out, adopted := p.tables.ForceCache(obj, resolver, p.localTime, avg)
		p.recordOutcomeLocked(out)
		if adopted {
			p.store[obj] = body
			p.tables.SetReplicas(obj, replicas, p.id, r.cfg.MaxReplicas)
			r.held[obj] = struct{}{}
			r.track(obj)
			return
		}
	}
	p.tables.SetReplicas(obj, replicas, p.id, r.cfg.MaxReplicas)
	if p.tables.IsCached(obj) && len(replicas) > 0 {
		r.track(obj)
	}
}

// rollWindowLocked is the controller's decay step, run every cfg.Window
// received requests. Mirrors the simulator's rollWindow; the only addition
// is that demoting a copy out of the caching table also releases its
// payload bytes from the store.
func (p *Proxy) rollWindowLocked() {
	r := p.replica
	for i := range r.load {
		r.load[i] >>= 1
	}
	for i := 0; i < len(r.tracked); {
		obj := r.tracked[i]
		if !p.tables.IsCached(obj) {
			p.tables.ClearReplicas(obj)
			r.untrack(i)
			continue
		}
		if r.hot[obj] >= r.cfg.DropThreshold {
			i++
			continue
		}
		loc, replicas, _ := p.tables.ForwardSet(obj)
		anchor := p.id
		if loc.IsProxy() && loc < anchor {
			anchor = loc
		}
		for _, n := range replicas {
			if n < anchor {
				anchor = n
			}
		}
		if anchor == p.id {
			p.tables.ClearReplicas(obj)
			r.untrack(i)
			continue
		}
		out, dropped := p.tables.DropCached(obj, anchor)
		if dropped {
			p.stats.ReplicaDrops++
			p.recordOutcomeLocked(out)
		}
		r.untrack(i)
	}
	clear(r.hot)
}

// recordOutcomeLocked applies a table-update outcome's side effects: the
// cache counters and the payload-store deletion for a demoted resident.
func (p *Proxy) recordOutcomeLocked(out core.Outcome) {
	if out.To() == core.KindCaching && out.From() != core.KindCaching {
		p.stats.CacheInsertions++
	}
	if out.CacheEvicted() {
		p.stats.CacheEvictions++
		delete(p.store, p.tables.Evicted())
	}
}

// forwardAddrReplicatedLocked is Forward_Addr with location sets: among the
// entry's known holders the proxy picks by power-of-two-choices on its
// local per-peer load estimates, ties breaking to the lower proxy ID.
// Mirrors the simulator's forwardAddrReplicated. With health probing on,
// down holders are skipped; when every known holder is down the stale set
// is invalidated and the forward fails over like the stock path.
func (p *Proxy) forwardAddrReplicatedLocked(obj ids.ObjectID, entry bool) (string, ids.NodeID, int64) {
	r := p.replica
	m := p.health.Load()
	loc, replicas, ok := p.tables.ForwardSet(obj)
	if !ok {
		return p.randomReplicatedLocked(m)
	}
	var buf [9]ids.NodeID // MaxReplicas is small; 9 covers loc + 8 replicas
	cand := buf[:0]
	skippedDown := false
	if loc.IsProxy() && loc != p.id {
		if _, known := p.peerURL[loc]; known {
			if m.routable(loc) {
				cand = append(cand, loc)
			} else {
				skippedDown = true
			}
		}
	}
	for _, n := range replicas {
		if n == p.id || n == loc || len(cand) == len(buf) {
			continue
		}
		if _, known := p.peerURL[n]; known {
			if m.routable(n) {
				cand = append(cand, n)
			} else {
				skippedDown = true
			}
		}
	}
	if skippedDown && len(cand) == 0 {
		// Every known holder is down: demote the stale entry so later
		// requests relearn instead of re-resolving dead holders.
		if p.tables.Invalidate(obj) {
			p.stats.StaleInvalidated++
		}
		if entry {
			p.stats.ForwardOrigin++
			return p.origin, ids.Origin, obs.ReasonFailover
		}
		return p.randomReplicatedLocked(m)
	}
	switch len(cand) {
	case 0:
		// No other holder known: stock behaviour (a THIS entry whose
		// object is not stored here goes to the origin).
		p.stats.ForwardOrigin++
		return p.origin, ids.Origin, obs.ReasonSelfOrigin
	case 1:
		p.stats.ForwardLearned++
		r.addLoad(cand[0])
		return p.peerURL[cand[0]], cand[0], obs.ReasonLearned
	}
	i := p.rng.Intn(len(cand))
	j := p.rng.Intn(len(cand) - 1)
	if j >= i {
		j++
	}
	a, b := cand[i], cand[j]
	la, lb := r.loadOf(a), r.loadOf(b)
	if lb < la || (lb == la && b < a) {
		a = b
	}
	p.stats.ForwardLearned++
	r.addLoad(a)
	return p.peerURL[a], a, obs.ReasonLearned
}

// randomReplicatedLocked is the replicated path's random fallback,
// load-accounted like every replicated forward; when health probing says
// no peer is routable the origin is the only resolver left.
func (p *Proxy) randomReplicatedLocked(m *healthMonitor) (string, ids.NodeID, int64) {
	if peer, ok := p.pickPeerLocked(m); ok {
		p.stats.ForwardRandom++
		p.replica.addLoad(peer)
		return p.peerURL[peer], peer, obs.ReasonRandom
	}
	p.stats.ForwardOrigin++
	return p.origin, ids.Origin, obs.ReasonFailover
}
