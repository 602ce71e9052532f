package sim

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
)

// pushEvent and popEvent drive the queue the way the engines do, with the
// event's fields passed in and read out in place.
func pushEvent(q *eventQueue, e event) { q.push(e.at, e.seq, e.m, e.svc) }

func popEvent(q *eventQueue) event {
	top := q.ev[0]
	q.removeTop()
	return top
}

// TestEventQueueTieBreakProperty is the invariant the parallel engine's
// cross-shard merge relies on: among equal-timestamp events, the heap pops
// in ascending sequence-number order — i.e. deterministic insertion order,
// regardless of heap shape. The test drives randomized workloads with heavy
// timestamp collisions and interleaved pushes/pops against a stable-sort
// reference.
func TestEventQueueTieBreakProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x4EAB))
	for trial := 0; trial < 200; trial++ {
		// Few distinct timestamps over many events forces long tie runs.
		nEvents := 1 + rng.Intn(500)
		nStamps := 1 + rng.Intn(8)
		var q eventQueue
		var ref []event
		var seq uint64
		pushOne := func() {
			seq++
			e := event{at: int64(rng.Intn(nStamps)), seq: seq}
			pushEvent(&q, e)
			ref = append(ref, e)
		}
		var popped []event
		for i := 0; i < nEvents; i++ {
			pushOne()
			// Occasionally pop mid-stream so the heap is exercised in
			// mixed push/pop shapes, not just bulk-load-then-drain.
			if rng.Intn(4) == 0 && q.Len() > 0 {
				popped = append(popped, popEvent(&q))
			}
		}
		for q.Len() > 0 {
			popped = append(popped, popEvent(&q))
		}

		// Reference order: stable sort by timestamp only. Stability keeps
		// equal timestamps in insertion order, which must equal ascending
		// seq — the engines assign seq in insertion order.
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })

		if len(popped) != len(ref) {
			t.Fatalf("trial %d: popped %d events, pushed %d", trial, len(popped), len(ref))
		}
		for i := range ref {
			// Interleaved pops cut the stream into drain segments; full
			// global order only holds for the final drain, so check the
			// local invariant instead: within every maximal run of equal
			// timestamps in the popped stream, seq strictly ascends.
			if i > 0 && popped[i].at == popped[i-1].at && popped[i].seq <= popped[i-1].seq {
				t.Fatalf("trial %d: pop %d: equal-timestamp events out of insertion order: seq %d after %d (at=%d)",
					trial, i, popped[i].seq, popped[i-1].seq, popped[i].at)
			}
		}
	}
}

// TestEventQueueDrainOrder is the bulk-load variant with a full total-order
// check: push a shuffled multiset with heavy collisions, drain completely,
// and require exactly the stable-sorted reference sequence.
func TestEventQueueDrainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0x15C4))
	for trial := 0; trial < 100; trial++ {
		nEvents := 1 + rng.Intn(1000)
		nStamps := 1 + rng.Intn(6)
		var q eventQueue
		ref := make([]event, nEvents)
		for i := range ref {
			ref[i] = event{at: int64(rng.Intn(nStamps)), seq: uint64(i + 1)}
			pushEvent(&q, ref[i])
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
		for i, want := range ref {
			got := popEvent(&q)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: pop %d: got (at=%d seq=%d), want (at=%d seq=%d)",
					trial, i, got.at, got.seq, want.at, want.seq)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d events left after drain", trial, q.Len())
		}
	}
}

// TestEventQueueInterleavedMatchesSort checks every removeTop of a
// randomized push/removeTop sequence — heavy timestamp collisions, pushes
// with out-of-order sequence numbers as the sharded merge produces — against
// a sort-based reference: each removed event must be the (at, seq) minimum
// of everything pushed and not yet removed, carrying its own message and
// service state. Removed slots must not keep their message reachable.
func TestEventQueueInterleavedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51F7))
	for trial := 0; trial < 200; trial++ {
		nOps := 1 + rng.Intn(800)
		nStamps := 1 + rng.Intn(10)
		var q eventQueue
		var ref []event
		seqs := rng.Perm(nOps)
		pushed := 0
		for op := 0; op < nOps || len(ref) > 0; op++ {
			if op < nOps && (len(ref) == 0 || rng.Intn(3) > 0) {
				seq := uint64(seqs[pushed]) + 1
				e := event{
					at:  int64(rng.Intn(nStamps)),
					seq: seq,
					m:   &msg.Request{ID: ids.RequestID(seq)},
					svc: service(seq % 3),
				}
				pushed++
				pushEvent(&q, e)
				ref = append(ref, e)
				continue
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i].precedes(ref[j].at, ref[j].seq) })
			want := ref[0]
			ref = ref[1:]
			n := q.Len()
			got := popEvent(&q)
			if got.at != want.at || got.seq != want.seq || got.m != want.m ||
				got.svc != want.svc {
				t.Fatalf("trial %d op %d: removed %+v, want %+v", trial, op, got, want)
			}
			if q.ev[:n][n-1].m != nil {
				t.Fatalf("trial %d op %d: vacated slot still holds a message", trial, op)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d events left after drain", trial, q.Len())
		}
	}
}
