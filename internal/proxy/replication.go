package proxy

import (
	"fmt"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
)

// Replication configures the hot-object replication controller — the
// DynamicCache-style control loop layered on stock ADC. Backwarding
// deliberately converges every object to one location (§IV.2), so under
// Zipf traffic the proxy holding the head object saturates while the rest
// of the farm idles. With replication enabled, a holder that sees an object
// run hot pushes copies to recent requesters (piggybacked on the replies it
// is already sending — no new round trips), backwarding advertises the
// resulting location *set*, forwarding picks among the set by
// power-of-two-choices on locally observed per-peer load, and cold replicas
// are dropped back toward the stock single-location state.
//
// The zero value disables the controller entirely; every hook in the
// request path is then a single false branch, keeping stock runs
// byte-identical to pre-replication builds (guarded by the golden
// determinism tests).
type Replication struct {
	// Enabled turns the controller on.
	Enabled bool

	// HotThreshold is how many local cache hits an object must collect
	// within the current window before the holder starts pushing
	// replicas of it. Default 32.
	HotThreshold int

	// MaxReplicas bounds the number of additional holders beyond the
	// primary location that an entry may advertise. Default 3.
	MaxReplicas int

	// Window is the controller's decay period in proxy-local logical
	// time (received requests): every Window requests the per-object hit
	// counts reset, per-peer load estimates halve, and replica copies
	// that stayed cold are dropped. Default 1024.
	Window int64

	// DropThreshold is the minimum window hit count that keeps a replica
	// copy alive; colder copies are shed at the window roll. Default 1
	// (a replica that served nothing this window is dropped).
	DropThreshold int
}

// Normalize fills zero knobs with defaults (only when Enabled).
func (r Replication) Normalize() Replication {
	if !r.Enabled {
		return r
	}
	if r.HotThreshold == 0 {
		r.HotThreshold = 32
	}
	if r.MaxReplicas == 0 {
		r.MaxReplicas = 3
	}
	if r.Window == 0 {
		r.Window = 1024
	}
	if r.DropThreshold == 0 {
		r.DropThreshold = 1
	}
	return r
}

// Validate reports the first configuration error, if any.
func (r Replication) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.HotThreshold < 1 {
		return fmt.Errorf("replication: hot threshold must be ≥ 1, got %d", r.HotThreshold)
	}
	if r.MaxReplicas < 1 {
		return fmt.Errorf("replication: max replicas must be ≥ 1, got %d", r.MaxReplicas)
	}
	if r.Window < 1 {
		return fmt.Errorf("replication: window must be ≥ 1, got %d", r.Window)
	}
	if r.DropThreshold < 1 {
		return fmt.Errorf("replication: drop threshold must be ≥ 1, got %d", r.DropThreshold)
	}
	return nil
}

// replicator is the per-proxy controller state. All structures are either
// never iterated (maps) or kept sorted (slices), so the controller is fully
// deterministic at a fixed seed.
type replicator struct {
	cfg Replication

	// hot counts local cache hits per object within the current window.
	// Reset (not decayed) at every roll: a hot object re-earns its pushes
	// each window, which is what lets cold replicas reconverge.
	hot map[ids.ObjectID]int

	// tracked is the sorted set of cached objects with replication
	// involvement here (adopted replica copies and primaries that have
	// pushed or learned a replica set); only these are examined at the
	// window roll. trackedSet mirrors it for O(1) membership; it is
	// never iterated.
	tracked    []ids.ObjectID
	trackedSet map[ids.ObjectID]struct{}

	// held marks objects this proxy holds as a pushed replica (for the
	// ReplicaHits counter); never iterated.
	held map[ids.ObjectID]struct{}

	// load estimates recent outgoing demand per peer proxy (indexed by
	// NodeID), halved each window. It is the "load" in
	// power-of-two-choices: purely local knowledge, no control traffic.
	load []uint64
}

func newReplicator(cfg Replication, peers []ids.NodeID) *replicator {
	max := ids.NodeID(0)
	for _, p := range peers {
		if p > max {
			max = p
		}
	}
	return &replicator{
		cfg:        cfg,
		hot:        make(map[ids.ObjectID]int),
		trackedSet: make(map[ids.ObjectID]struct{}),
		held:       make(map[ids.ObjectID]struct{}),
		load:       make([]uint64, int(max)+1),
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

// noteHit records a local cache hit for the controller: bump the window hit
// count and credit the replica counter when the copy was pushed here.
func (p *ADC) noteHit(obj ids.ObjectID) {
	r := p.replica
	r.hot[obj]++
	if _, held := r.held[obj]; held {
		p.stats.ReplicaHits++
	}
}

// maybePush decides, on the local-hit backwarding path, whether to push a
// replica of obj to the reply's first backwarding hop — the proxy that
// forwarded the request here, i.e. a recent requester. The push rides the
// reply itself: the object's data is passing through that proxy anyway, so
// adoption costs no extra message. Independently of pushing, a holder with
// a non-empty replica set advertises it so the path learns the location
// set.
//
// prevLoc is the entry's Location before the hit-path Update rewrote it to
// this proxy; when it named another holder (this copy was an adopted
// replica and prevLoc the primary), it is folded into the replica set so
// the candidate holder set survives the rewrite.
func (p *ADC) maybePush(obj ids.ObjectID, prevLoc ids.NodeID, rep *msg.Reply) {
	r := p.replica
	if prevLoc.IsProxy() && prevLoc != p.id {
		if p.tables.AddReplica(obj, prevLoc, r.cfg.MaxReplicas) {
			r.track(obj)
		}
	}
	if r.hot[obj] >= r.cfg.HotThreshold {
		if n := len(rep.Path); n > 0 {
			if target := rep.Path[n-1]; target.IsProxy() && target != p.id {
				if p.tables.AddReplica(obj, target, r.cfg.MaxReplicas) {
					p.stats.ReplicaPushes++
					r.track(obj)
				}
			}
		}
	}
	// A holder's view of the set is authoritative: advertise it even when
	// empty, so remote proxies replace stale beliefs (the drop half of
	// reconvergence rides the same piggyback as the push half). The
	// holder's measured average goes along as the adoption seed.
	if _, replicas, ok := p.tables.ForwardSet(obj); ok {
		rep.Replicas = append(rep.Replicas[:0], replicas...)
		rep.Replicate = true
		if avg, ok := p.tables.AvgOf(obj); ok {
			rep.AvgHint = avg
		}
		if len(replicas) > 0 {
			r.track(obj)
		}
	}
}

// learnReplicas folds a reply's advertised location set into the local
// entry, and — when this proxy is one of the designated replica targets —
// adopts the passing object into the cache. Only replies flagged Replicate
// carry an authoritative set (a holder spoke); those use replace semantics,
// so sets converge as the controller grows and shrinks them, and an
// advertised empty set clears stale beliefs. Replies from non-replicating
// resolutions — a plain origin miss racing the same object — leave the
// learned set alone: wiping it on every such race forces the holder to
// re-push each window and the controller thrashes instead of converging.
func (p *ADC) learnReplicas(rep *msg.Reply) {
	if !rep.Replicate {
		return
	}
	r := p.replica
	if core.ContainsNode(rep.Replicas, p.id) && !p.tables.IsCached(rep.Object) {
		// This proxy was designated a replica holder and the object's
		// data is passing by right now: force it into the cache. The
		// primary stays rep.Resolver; the other designated holders
		// become our replica set.
		out, adopted := p.tables.ForceCache(rep.Object, rep.Resolver, p.localTime, rep.AvgHint)
		p.recordOutcome(out)
		if adopted {
			p.tables.SetReplicas(rep.Object, rep.Replicas, p.id, r.cfg.MaxReplicas)
			r.held[rep.Object] = struct{}{}
			r.track(rep.Object)
			return
		}
	}
	// Non-designated path proxy: learn the advertised set (primary =
	// Resolver is already the entry's Location via the Update above).
	p.tables.SetReplicas(rep.Object, rep.Replicas, p.id, r.cfg.MaxReplicas)
	if p.tables.IsCached(rep.Object) && len(rep.Replicas) > 0 {
		r.track(rep.Object)
	}
}

// rollWindow is the controller's decay step, run every cfg.Window received
// requests: halve per-peer load estimates, reset per-object hit counts, and
// walk the tracked objects shedding replica copies that stayed cold.
//
// The drop rule reconverges toward stock ADC: among the holders an entry
// knows ({self} ∪ {Location} ∪ Replicas), the lowest proxy ID is the
// anchor. A cold non-anchor holder demotes its copy out of the cache
// (keeping a forwarding entry pointed at the anchor, so routing knowledge
// survives); a cold anchor keeps the object but clears its advertisement.
// Holder views can diverge transiently — the worst case is every holder
// dropping and the next miss re-resolving via the origin, which is exactly
// a stock-ADC cold start.
func (p *ADC) rollWindow() {
	r := p.replica
	for i := range r.load {
		r.load[i] >>= 1
	}
	for i := 0; i < len(r.tracked); {
		obj := r.tracked[i]
		if !p.tables.IsCached(obj) {
			// The copy was evicted by normal table pressure; the
			// controller just forgets it.
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
			p.recordOutcome(out)
		}
		r.untrack(i)
	}
	clear(r.hot)
}

// forwardAddrReplicated is Forward_Addr with location sets: the candidate
// holders are the entry's Location plus its replica set, and among ≥2
// candidates the proxy picks by power-of-two-choices on its local per-peer
// load estimates (two uniform draws, lower load wins, ties break to the
// lower proxy ID so fixed-seed runs stay deterministic).
func (p *ADC) forwardAddrReplicated(entry *core.Entry) (to ids.NodeID, viaTable bool) {
	if entry == nil {
		p.stats.ForwardRandom++
		to = p.peers[p.rng.Intn(len(p.peers))]
		p.replica.addLoad(to)
		return to, false
	}
	loc, replicas := entry.Location, entry.Replicas()
	// Candidates: every known holder that is not this proxy.
	var buf [9]ids.NodeID // MaxReplicas is small; 9 covers loc + 8 replicas
	cand := buf[:0]
	if loc.IsProxy() && loc != p.id {
		cand = append(cand, loc)
	}
	for _, n := range replicas {
		if n != p.id && n != loc && len(cand) < len(buf) {
			cand = append(cand, n)
		}
	}
	switch len(cand) {
	case 0:
		// No other holder known: stock behavior (a THIS entry whose
		// object is not cached here goes to the origin).
		p.stats.ForwardOrigin++
		return ids.Origin, true
	case 1:
		p.stats.ForwardLearned++
		p.replica.addLoad(cand[0])
		return cand[0], true
	}
	i := p.rng.Intn(len(cand))
	j := p.rng.Intn(len(cand) - 1)
	if j >= i {
		j++
	}
	a, b := cand[i], cand[j]
	la, lb := p.replica.loadOf(a), p.replica.loadOf(b)
	if lb < la || (lb == la && b < a) {
		a = b
	}
	p.stats.ForwardLearned++
	p.replica.addLoad(a)
	return a, true
}
