package proxy

import (
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/sim"
)

func testReplication() Replication {
	return Replication{Enabled: true, HotThreshold: 2, MaxReplicas: 2, Window: 1 << 30, DropThreshold: 1}
}

// replicatedRig is rig() with the replication controller on.
func replicatedRig(t *testing.T, n int, rep Replication) (*sim.Engine, []*ADC) {
	t.Helper()
	peerIDs := make([]ids.NodeID, n)
	for i := range peerIDs {
		peerIDs[i] = ids.NodeID(i)
	}
	eng := sim.NewEngine()
	proxies := make([]*ADC, n)
	for i := range proxies {
		p, err := New(Config{ID: ids.NodeID(i), Peers: peerIDs, Tables: testTables(), Seed: 42, Replication: rep})
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		if err := eng.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	return eng, proxies
}

func TestReplicationValidate(t *testing.T) {
	if err := (Replication{}).Validate(); err != nil {
		t.Errorf("zero value must validate, got %v", err)
	}
	norm := Replication{Enabled: true}.Normalize()
	if norm.HotThreshold != 32 || norm.MaxReplicas != 3 || norm.Window != 1024 || norm.DropThreshold != 1 {
		t.Errorf("defaults = %+v", norm)
	}
	if err := norm.Validate(); err != nil {
		t.Errorf("normalized config must validate, got %v", err)
	}
	bad := []Replication{
		{Enabled: true, HotThreshold: -1, MaxReplicas: 1, Window: 1, DropThreshold: 1},
		{Enabled: true, HotThreshold: 1, MaxReplicas: -1, Window: 1, DropThreshold: 1},
		{Enabled: true, HotThreshold: 1, MaxReplicas: 1, Window: -1, DropThreshold: 1},
		{Enabled: true, HotThreshold: 1, MaxReplicas: 1, Window: 1, DropThreshold: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: %+v must fail validation", i, cfg)
		}
	}
	if _, err := New(Config{ID: 0, Peers: []ids.NodeID{0}, Tables: testTables(),
		Replication: Replication{Enabled: true, HotThreshold: -3}}); err == nil {
		t.Error("New must reject an invalid replication config")
	}
}

func TestReplicationPushesAndServesReplicaHits(t *testing.T) {
	// Converged hotspot setup: proxy 0 holds the hot object, proxy 1 has
	// learned that location and forwards every request there. The push
	// must ride the very next reply through proxy 1, which adopts the
	// copy and serves later requests itself.
	eng, proxies := replicatedRig(t, 2, testReplication())
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	holder, entry := proxies[0], proxies[1]
	const obj = ids.ObjectID(7)
	if _, adopted := holder.tables.ForceCache(obj, 0, 1, 0); !adopted {
		t.Fatal("setup: ForceCache failed")
	}
	holder.noteHit(obj)
	holder.noteHit(obj) // hot[obj] ≥ HotThreshold: next hit pushes
	entry.tables.Update(obj, 0, 1)

	rep := send(t, eng, s, 1, obj, 1)
	if !rep.Cached || rep.Resolver != 0 {
		t.Fatalf("reply = %+v, want cached hit resolved at proxy 0", rep)
	}
	if holder.Stats().ReplicaPushes != 1 {
		t.Fatalf("holder ReplicaPushes = %d, want 1", holder.Stats().ReplicaPushes)
	}
	if !entry.Tables().IsCached(obj) {
		t.Fatal("entry proxy did not adopt the pushed replica")
	}
	if _, held := entry.replica.held[obj]; !held {
		t.Fatal("adopted copy not marked as a held replica")
	}

	// Later requests through proxy 1 are local replica hits: the head
	// object's load no longer concentrates on proxy 0.
	before := holder.Stats().Requests
	for i := uint64(2); i <= 5; i++ {
		send(t, eng, s, 1, obj, i)
	}
	if entry.Stats().ReplicaHits != 4 {
		t.Errorf("entry ReplicaHits = %d, want 4", entry.Stats().ReplicaHits)
	}
	if holder.Stats().Requests != before {
		t.Errorf("holder saw %d more requests after replication", holder.Stats().Requests-before)
	}
	for _, p := range proxies {
		if p.PendingLen() != 0 {
			t.Errorf("proxy %v has %d dangling pending entries", p.ID(), p.PendingLen())
		}
	}
}

func TestReplicationDeterministicAcrossRuns(t *testing.T) {
	run := func() []ids.NodeID {
		eng, proxies := replicatedRig(t, 5, Replication{Enabled: true, HotThreshold: 2, MaxReplicas: 3, Window: 128, DropThreshold: 1})
		s := &sink{id: ids.Client(0)}
		if err := eng.Register(s); err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 500; i++ {
			send(t, eng, s, ids.NodeID(i%5), ids.ObjectID(i%11), i)
		}
		var out []ids.NodeID
		for _, p := range proxies {
			st := p.Stats()
			out = append(out,
				ids.NodeID(st.Requests), ids.NodeID(st.LocalHits),
				ids.NodeID(st.ReplicaPushes), ids.NodeID(st.ReplicaDrops),
				ids.NodeID(st.ReplicaHits), ids.NodeID(st.ForwardLearned),
				ids.NodeID(p.Tables().Len()))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a, b)
		}
	}
}

func TestRollWindowDropsColdNonAnchorReplica(t *testing.T) {
	peers := []ids.NodeID{0, 1, 2}
	p, err := New(Config{ID: 2, Peers: peers, Tables: testTables(), Seed: 1, Replication: testReplication()})
	if err != nil {
		t.Fatal(err)
	}
	const obj = ids.ObjectID(9)
	// Pretend a replica of obj was pushed here, primary at proxy 1.
	if _, adopted := p.tables.ForceCache(obj, 1, 1, 0); !adopted {
		t.Fatal("setup: ForceCache failed")
	}
	p.replica.held[obj] = struct{}{}
	p.replica.track(obj)

	p.rollWindow() // zero hits this window → cold
	if p.tables.IsCached(obj) {
		t.Error("cold non-anchor replica still cached after roll")
	}
	if p.stats.ReplicaDrops != 1 {
		t.Errorf("ReplicaDrops = %d, want 1", p.stats.ReplicaDrops)
	}
	loc, ok := p.tables.ForwardLocation(obj)
	if !ok || loc != 1 {
		t.Errorf("post-drop location = (%v, %v), want anchor 1", loc, ok)
	}
	if len(p.replica.tracked) != 0 {
		t.Errorf("tracked = %v, want empty", p.replica.tracked)
	}
}

func TestRollWindowAnchorKeepsCopyAndStopsAdvertising(t *testing.T) {
	peers := []ids.NodeID{0, 1, 2}
	p, err := New(Config{ID: 0, Peers: peers, Tables: testTables(), Seed: 1, Replication: testReplication()})
	if err != nil {
		t.Fatal(err)
	}
	const obj = ids.ObjectID(9)
	// This proxy holds the copy and pushed a replica to proxy 2.
	if _, adopted := p.tables.ForceCache(obj, 0, 1, 0); !adopted {
		t.Fatal("setup: ForceCache failed")
	}
	p.tables.AddReplica(obj, 2, 2)
	p.replica.track(obj)

	p.rollWindow()
	if !p.tables.IsCached(obj) {
		t.Error("anchor dropped its copy; at least one holder must survive")
	}
	if _, replicas, _ := p.tables.ForwardSet(obj); replicas != nil {
		t.Errorf("anchor still advertises %v after cold roll", replicas)
	}
	if p.stats.ReplicaDrops != 0 {
		t.Errorf("ReplicaDrops = %d, want 0 (anchor keeps the copy)", p.stats.ReplicaDrops)
	}
}

func TestRollWindowKeepsHotReplica(t *testing.T) {
	peers := []ids.NodeID{0, 1, 2}
	p, err := New(Config{ID: 2, Peers: peers, Tables: testTables(), Seed: 1, Replication: testReplication()})
	if err != nil {
		t.Fatal(err)
	}
	const obj = ids.ObjectID(9)
	p.tables.ForceCache(obj, 1, 1, 0)
	p.replica.held[obj] = struct{}{}
	p.replica.track(obj)
	p.noteHit(obj) // one hit ≥ DropThreshold 1

	p.rollWindow()
	if !p.tables.IsCached(obj) {
		t.Error("hot replica dropped at roll")
	}
	if len(p.replica.tracked) != 1 {
		t.Errorf("tracked = %v, want [%d]", p.replica.tracked, obj)
	}
	if len(p.replica.hot) != 0 {
		t.Error("hit counts must reset at the window roll")
	}
	if p.stats.ReplicaHits != 1 {
		t.Errorf("ReplicaHits = %d, want 1", p.stats.ReplicaHits)
	}
}

func TestForwardAddrReplicatedPowerOfTwoChoices(t *testing.T) {
	peers := []ids.NodeID{0, 1, 2}
	p, err := New(Config{ID: 0, Peers: peers, Tables: testTables(), Seed: 1, Replication: testReplication()})
	if err != nil {
		t.Fatal(err)
	}
	const obj = ids.ObjectID(3)
	p.tables.Update(obj, 1, 1)
	p.tables.AddReplica(obj, 2, 2)
	forward := func(o ids.ObjectID) (ids.NodeID, bool) {
		e, _ := p.tables.Lookup(o)
		return p.forwardAddr(e)
	}

	// Tie at zero load: the lower proxy ID wins deterministically.
	to, via := forward(obj)
	if !via || to != 1 {
		t.Fatalf("tie-break forward = (%v, %v), want (1, true)", to, via)
	}
	// Choosing 1 charged its load estimate, so 2 must win now.
	to, _ = forward(obj)
	if to != 2 {
		t.Fatalf("second forward = %v, want 2 (lower load)", to)
	}
	// Pile load onto 2; routing must move back to 1.
	for i := 0; i < 8; i++ {
		p.replica.addLoad(2)
	}
	to, _ = forward(obj)
	if to != 1 {
		t.Fatalf("loaded forward = %v, want 1", to)
	}

	// Single known holder: plain learned forward.
	const obj2 = ids.ObjectID(4)
	p.tables.Update(obj2, 2, 2)
	to, via = forward(obj2)
	if !via || to != 2 {
		t.Fatalf("single-holder forward = (%v, %v), want (2, true)", to, via)
	}

	// THIS entry with no replicas still goes to the origin.
	const obj3 = ids.ObjectID(5)
	p.tables.Update(obj3, 0, 3)
	to, via = forward(obj3)
	if !via || to != ids.Origin {
		t.Fatalf("THIS forward = (%v, %v), want (Origin, true)", to, via)
	}
}

func TestReplicationRestartResetsController(t *testing.T) {
	p, err := New(Config{ID: 0, Peers: []ids.NodeID{0, 1}, Tables: testTables(), Seed: 1, Replication: testReplication()})
	if err != nil {
		t.Fatal(err)
	}
	const obj = ids.ObjectID(1)
	p.tables.ForceCache(obj, 0, 1, 0)
	p.noteHit(obj)
	p.replica.held[obj] = struct{}{}
	p.replica.track(obj)
	p.replica.addLoad(1)

	p.Restart(false)
	r := p.replica
	if r == nil {
		t.Fatal("controller gone after restart")
	}
	if len(r.hot) != 0 || len(r.tracked) != 0 || len(r.held) != 0 || r.loadOf(1) != 0 {
		t.Errorf("controller state survived restart: hot=%v tracked=%v held=%v load=%d",
			r.hot, r.tracked, r.held, r.loadOf(1))
	}
}
