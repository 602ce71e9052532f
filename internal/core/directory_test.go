package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// TestDirectoryConsistency: after arbitrary churn the unified directory
// must agree exactly with the union of the three tables — same objects,
// same entry pointers, and every entry's kind naming its table.
func TestDirectoryConsistency(t *testing.T) {
	for _, admitAll := range []bool{false, true} {
		name := "adc"
		if admitAll {
			name = "admit-all"
		}
		t.Run(name, func(t *testing.T) {
			tbl, err := NewTables(Config{
				SingleSize: 8, MultipleSize: 5, CachingSize: 3,
				CacheAdmitAll: admitAll,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.dir == nil {
				t.Fatal("directory should be enabled in the default configuration")
			}
			rng := rand.New(rand.NewSource(7))
			for i := int64(1); i <= 20000; i++ {
				tbl.Update(ids.ObjectID(rng.Intn(120)), ids.NodeID(rng.Intn(4)), i)
			}
			checkDirectory(t, tbl)
		})
	}
}

// residents walks the three tables and returns every resident entry by
// object, failing on an object held twice or an entry whose kind does not
// name the table holding it.
func residents(t *testing.T, tbl *Tables) map[ids.ObjectID]*Entry {
	t.Helper()
	all := make(map[ids.ObjectID]*Entry)
	walk := func(kind Kind, each func(func(*Entry) bool)) {
		each(func(e *Entry) bool {
			if _, dup := all[e.Object]; dup {
				t.Fatalf("object %v present in two tables", e.Object)
			}
			if e.kind != kind {
				t.Fatalf("object %v sits in the %v table but its kind reads %v", e.Object, kind, e.kind)
			}
			all[e.Object] = e
			return true
		})
	}
	walk(KindCaching, tbl.caching.Each)
	walk(KindMultiple, tbl.multiple.Each)
	walk(KindSingle, tbl.single.Each)
	return all
}

// checkDirectory asserts the directory holds exactly the tables' residents,
// each under its own object, and returns the residents.
func checkDirectory(t *testing.T, tbl *Tables) map[ids.ObjectID]*Entry {
	t.Helper()
	all := residents(t, tbl)
	for obj, e := range all {
		if got := tbl.dir.get(obj); got != e {
			t.Fatalf("dir.get(%v) = %p, tables hold %p", obj, got, e)
		}
	}
	live := 0
	for _, s := range tbl.dir.slots {
		if s.e == nil {
			continue
		}
		live++
		if all[s.obj] != s.e {
			t.Fatalf("directory slot for %v points at an entry no table holds", s.obj)
		}
	}
	if live != len(all) {
		t.Fatalf("directory has %d objects, tables have %d", live, len(all))
	}
	return all
}

// longestRun returns the longest distance any recorded object sits from
// its home slot, plus one: the worst-case probe count of a successful get.
func longestRun(d *directory) int {
	longest := 0
	for i, s := range d.slots {
		if s.e == nil {
			continue
		}
		if n := int((uint64(i)-d.home(s.obj))&d.mask) + 1; n > longest {
			longest = n
		}
	}
	return longest
}

// maxProbeRun bounds longestRun in the tests below. The directory's load
// factor stays at or below one half, where a probe run this long has
// negligible probability under any seed.
const maxProbeRun = 48

// TestDirectoryProperty drives random sequences of every operation that
// moves entries — Update (selective and CacheAdmitAll), ForceCache,
// DropCached and Invalidate — against a reference Go map of the objects the
// outcomes say the tables should know, and after every step asserts that
// directory and table membership agree, that every resident's kind matches
// its table, that entries back in the arena read KindNone, and that the
// longest probe run stays bounded. Object IDs are drawn dense and, in a
// second pass, strided by 2^32 — the shape a weak hash folds into one run.
func TestDirectoryProperty(t *testing.T) {
	for _, admitAll := range []bool{false, true} {
		for _, shift := range []uint{0, 32} {
			name := fmt.Sprintf("admitAll=%v/shift=%d", admitAll, shift)
			t.Run(name, func(t *testing.T) {
				runDirectoryProperty(t, admitAll, shift)
			})
		}
	}
}

func runDirectoryProperty(t *testing.T, admitAll bool, shift uint) {
	tbl, err := NewTables(Config{
		SingleSize: 40, MultipleSize: 25, CachingSize: 15,
		CacheAdmitAll: admitAll,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[ids.ObjectID]bool)
	rng := rand.New(rand.NewSource(int64(shift) + 11))
	for step := int64(1); step <= 30000; step++ {
		obj := ids.ObjectID(rng.Intn(200)) << shift
		loc := ids.NodeID(rng.Intn(5))
		_, before := tbl.Lookup(obj)
		var out Outcome
		switch op := rng.Intn(10); {
		case op < 6:
			out = tbl.Update(obj, loc, step)
			ref[obj] = true
		case op < 7:
			out, _ = tbl.ForceCache(obj, loc, step, int64(rng.Intn(50)))
			ref[obj] = true
		case op < 8:
			var dropped bool
			out, dropped = tbl.DropCached(obj, loc)
			if dropped != (before == KindCaching) {
				t.Fatalf("step %d: DropCached(%v) = %v for a %v entry", step, obj, dropped, before)
			}
		default:
			e, _ := tbl.Lookup(obj)
			removed := tbl.Invalidate(obj)
			if removed != (before == KindSingle || before == KindMultiple) {
				t.Fatalf("step %d: Invalidate(%v) = %v for a %v entry", step, obj, removed, before)
			}
			if removed {
				delete(ref, obj)
				if e.kind != KindNone {
					t.Fatalf("step %d: invalidated entry reads kind %v", step, e.kind)
				}
			}
		}
		// A drop forgets exactly one object; nothing else leaves.
		all := checkDirectory(t, tbl)
		var gone []ids.ObjectID
		for o := range ref {
			if all[o] == nil {
				gone = append(gone, o)
			}
		}
		want := 0
		if out.Dropped() {
			want = 1
		}
		if len(gone) != want {
			t.Fatalf("step %d: outcome %v, objects %v left the tables", step, out, gone)
		}
		for _, o := range gone {
			delete(ref, o)
		}
		if len(all) != len(ref) {
			t.Fatalf("step %d: tables hold %d objects, reference %d", step, len(all), len(ref))
		}
		if _, kind := tbl.Lookup(obj); out.To() != KindNone && ref[obj] && kind != out.To() {
			t.Fatalf("step %d: %v ended in %v, outcome says %v", step, obj, kind, out.To())
		}
		for _, e := range tbl.arena.free {
			if e.kind != KindNone {
				t.Fatalf("step %d: recycled entry reads kind %v", step, e.kind)
			}
		}
		if n := longestRun(tbl.dir); n > maxProbeRun {
			t.Fatalf("step %d: probe run of %d slots", step, n)
		}
	}
}

// TestDirectoryAdversarialIDs fills a reference-shaped directory with
// strided object IDs under several fixed seeds (zero included) and checks
// that probe runs stay short and that deleting every other object keeps
// the rest reachable.
func TestDirectoryAdversarialIDs(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x9E3779B97F4A7C15, ^uint64(0)} {
		for _, stride := range []uint{12, 32, 48} {
			d := newDirectory(5000)
			d.seed = seed
			entries := make([]Entry, 5000)
			for k := range entries {
				entries[k].Object = ids.ObjectID(k) << stride
				d.put(&entries[k])
			}
			if n := longestRun(d); n > maxProbeRun {
				t.Errorf("seed %#x stride %d: probe run of %d slots", seed, stride, n)
			}
			for k := 0; k < len(entries); k += 2 {
				d.del(entries[k].Object)
			}
			for k := range entries {
				want := &entries[k]
				if k%2 == 0 {
					want = nil
				}
				if got := d.get(entries[k].Object); got != want {
					t.Fatalf("seed %#x stride %d: get(%v) = %p, want %p", seed, stride, entries[k].Object, got, want)
				}
			}
		}
	}
}

// TestDirectoryDisabledInProbeModes: the paper-faithful timing modes must
// keep element-wise probing, so the directory stays off.
func TestDirectoryDisabledInProbeModes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single-scan", Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4, SingleScan: true}},
		{"list-backend", Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4, Backend: BackendList}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := NewTables(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.dir != nil {
				t.Fatal("directory must be disabled in paper-faithful probe mode")
			}
			// The probe path must still implement the full state machine.
			tbl.Update(1, 0, 1)
			tbl.Update(1, 0, 2)
			tbl.Update(1, 0, 3)
			if !tbl.IsCached(1) {
				t.Fatal("three updates should cache object 1")
			}
		})
	}
}

// TestArenaRecyclesDropped: in steady state (full single-table, every first
// sighting dropping a forgotten object) the update that drops an entry
// returns it to the arena, so Update is allocation-free and the next
// newcomer reuses the dropped entry's memory.
func TestArenaRecyclesDropped(t *testing.T) {
	tbl, err := NewTables(Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		tbl.Update(ids.ObjectID(i), 0, i)
	}
	dropped, _ := tbl.Lookup(1) // the single-table bottom
	out := tbl.Update(5, 0, 5)
	if !out.Dropped() {
		t.Fatal("full single-table should drop on a first sighting")
	}
	if dropped.Object != 0 || dropped.Hits != 0 || len(tbl.arena.free) != 1 {
		t.Fatal("dropped entry should be zeroed and back in the arena")
	}
	tbl.Update(6, 0, 6)
	e, kind := tbl.Lookup(6)
	if kind != KindSingle || e != dropped {
		t.Fatalf("new entry should reuse the recycled one: got %p, want %p", e, dropped)
	}

	// Steady state allocates nothing per Update.
	obj := int64(100)
	now := int64(100)
	allocs := testing.AllocsPerRun(200, func() {
		obj++
		now++
		tbl.Update(ids.ObjectID(obj), 0, now)
	})
	if allocs != 0 {
		t.Errorf("steady-state Update allocates %.1f/op, want 0", allocs)
	}
}

// TestRecycleNoDrop is the no-op path: updates without a dropped entry
// leave the arena untouched.
func TestRecycleNoDrop(t *testing.T) {
	tbl, err := NewTables(Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out := tbl.Update(1, 0, 1); out.Dropped() {
		t.Fatal("empty table cannot drop")
	}
	if len(tbl.arena.free) != 0 {
		t.Fatal("nothing should have been recycled")
	}
}

// TestEachMatchesEntries: Each must visit the same entries in the same
// order as Entries, allocation-free, and honour early termination.
func TestEachMatchesEntries(t *testing.T) {
	forEachBackend(t, 16, func(t *testing.T, tbl Ordered) {
		for i := 0; i < 12; i++ {
			e := NewEntry(ids.ObjectID(i), 0, int64(i*3%7))
			tbl.Insert(e)
		}
		want := tbl.Entries()
		var got []*Entry
		tbl.Each(func(e *Entry) bool {
			got = append(got, e)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("Each visited %d entries, Entries has %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("order differs at %d: %v vs %v", i, got[i].Object, want[i].Object)
			}
		}
		n := 0
		tbl.Each(func(*Entry) bool { n++; return n < 3 })
		if n != 3 {
			t.Fatalf("early-terminated Each visited %d entries, want 3", n)
		}
		allocs := testing.AllocsPerRun(20, func() {
			tbl.Each(func(*Entry) bool { return true })
		})
		if allocs != 0 {
			t.Errorf("Each allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestSingleTableEach mirrors TestEachMatchesEntries for the single-table.
func TestSingleTableEach(t *testing.T) {
	tbl := NewSingleTable(8, false)
	for i := int64(1); i <= 5; i++ {
		tbl.InsertTop(NewEntry(ids.ObjectID(i), 0, i))
	}
	want := tbl.Entries()
	i := 0
	tbl.Each(func(e *Entry) bool {
		if want[i] != e {
			t.Fatalf("order differs at %d", i)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("visited %d, want %d", i, len(want))
	}
}

// TestParseBackend covers the flag-value mapping, including the default.
func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendBTree, true},
		{"btree", BackendBTree, true},
		{"slice", BackendSlice, true},
		{"skiplist", BackendSkipList, true},
		{"list", BackendList, true},
		{"rope", 0, false},
		{"BTREE", 0, false},
	}
	for _, tc := range cases {
		got, ok := ParseBackend(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseBackend(%q) = (%v, %v), want (%v, %v)",
				tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for _, b := range []Backend{BackendBTree, BackendSlice, BackendSkipList, BackendList} {
		back, ok := ParseBackend(b.String())
		if !ok || back != b {
			t.Errorf("round-trip failed for %v", b)
		}
	}
}

// noObj is an "absent" marker for object comparisons (ObjectID is
// unsigned, so the max value serves as the sentinel).
const noObj = ^ids.ObjectID(0)

// TestOrderedOpEquivalence drives all four backends through an identical
// randomized Insert/Remove/RemoveEntry/RemoveWorst sequence and demands
// identical observable behaviour at every step. Entries are duplicated per
// table (an entry lives in at most one container), so equality is by
// object.
//
// The "ties" case draws keys from three values and objects in scrambled
// order into a table spanning several B-tree blocks, so most comparisons
// fall through to the Object tie-break — which the B-tree resolves by
// dereferencing the entry behind an inline key — also at block boundaries.
func TestOrderedOpEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		keySpan  int
		scramble bool
	}{
		{"spread", 16, 1000, false},
		{"ties", 600, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runOrderedOpEquivalence(t, tc.capacity, tc.keySpan, tc.scramble)
		})
	}
}

func runOrderedOpEquivalence(t *testing.T, capacity, keySpan int, scramble bool) {
	backends := []Backend{BackendBTree, BackendSlice, BackendSkipList, BackendList}
	tables := make([]Ordered, len(backends))
	held := make([]map[ids.ObjectID]*Entry, len(backends))
	for i, b := range backends {
		tables[i] = NewOrdered(capacity, b)
		held[i] = make(map[ids.ObjectID]*Entry)
	}
	rng := rand.New(rand.NewSource(42))
	issued := int64(0)
	// object maps the n-th issued object to its ID: sequential, or
	// scrambled by an odd multiplier (a bijection on 64 bits) so inserts
	// arrive in random Object order.
	object := func(n int64) ids.ObjectID {
		if scramble {
			return ids.ObjectID(uint64(n) * 0x9E3779B97F4A7C15)
		}
		return ids.ObjectID(n)
	}

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // Insert a fresh entry with a random key
			issued++
			obj := object(issued)
			last, avg := int64(rng.Intn(keySpan)), int64(rng.Intn(keySpan))
			evicted := noObj
			for i, tbl := range tables {
				e := &Entry{Object: obj, Last: last, Avg: avg, Hits: 1}
				held[i][obj] = e
				out := tbl.Insert(e)
				got := noObj
				if out != nil {
					got = out.Object
					delete(held[i], out.Object)
				}
				if i == 0 {
					evicted = got
				} else if got != evicted {
					t.Fatalf("step %d: %v evicted %v, %v evicted %v",
						step, backends[0], evicted, backends[i], got)
				}
			}
		case op < 7: // Remove by object (may miss)
			probe := object(rng.Int63n(issued + 1))
			want := noObj
			for i, tbl := range tables {
				out := tbl.Remove(probe)
				got := noObj
				if out != nil {
					got = out.Object
					delete(held[i], out.Object)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("step %d: Remove(%v) mismatch", step, probe)
				}
			}
		case op < 8: // RemoveEntry on a known-present entry
			if len(held[0]) == 0 {
				continue
			}
			// Pick deterministically: the reference table's worst-but-one
			// would do, but any shared object works; use the smallest.
			pick := noObj
			for obj := range held[0] {
				if obj < pick {
					pick = obj
				}
			}
			for i, tbl := range tables {
				e := held[i][pick]
				if e == nil {
					t.Fatalf("step %d: %v lost object %v", step, backends[i], pick)
				}
				tbl.RemoveEntry(e)
				delete(held[i], pick)
			}
		default: // RemoveWorst
			want := noObj
			for i, tbl := range tables {
				out := tbl.RemoveWorst()
				got := noObj
				if out != nil {
					got = out.Object
					delete(held[i], out.Object)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("step %d: RemoveWorst mismatch: %v vs %v", step, want, got)
				}
			}
		}
		// Cross-check observable state every step: Len, WorstKey, order.
		refEntries := tables[0].Entries()
		for i := 1; i < len(tables); i++ {
			if tables[i].Len() != tables[0].Len() {
				t.Fatalf("step %d: Len mismatch %d vs %d", step, tables[0].Len(), tables[i].Len())
			}
			wk0, ok0 := tables[0].WorstKey()
			wki, oki := tables[i].WorstKey()
			if wk0 != wki || ok0 != oki {
				t.Fatalf("step %d: WorstKey mismatch", step)
			}
			j := 0
			tables[i].Each(func(e *Entry) bool {
				if refEntries[j].Object != e.Object {
					t.Fatalf("step %d: order differs at %d: %v vs %v",
						step, j, refEntries[j].Object, e.Object)
				}
				j++
				return true
			})
			if j != len(refEntries) {
				t.Fatalf("step %d: Each visited %d, want %d", step, j, len(refEntries))
			}
		}
	}
}
