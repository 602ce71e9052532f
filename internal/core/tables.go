package core

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
)

// Config sizes and shapes one proxy's mapping tables. The paper's reference
// configuration is 20k/20k/10k (§V.2).
type Config struct {
	// SingleSize is the single-table capacity (first sightings).
	SingleSize int
	// MultipleSize is the multiple-table capacity (objects seen ≥2×).
	MultipleSize int
	// CachingSize is the caching-table capacity — the local cache size.
	CachingSize int
	// Backend selects the ordered-table implementation (default: btree,
	// the bounded block B-tree).
	Backend Backend
	// SingleScan selects the paper-faithful O(n) linear-search
	// single-table used for the Fig. 15 timing ablation. It also
	// disables the unified directory, so every table probe is
	// element-wise exactly as in the paper's own implementation.
	SingleScan bool
	// CacheAdmitAll replaces selective caching with the behaviour the
	// paper ascribes to hierarchical and hashing systems: "every proxy
	// stores all passing objects regardless of its future significance
	// and usually uses the LRU algorithm as the cache replacement
	// strategy" (§III.4). Every Update puts the object straight into an
	// LRU caching table; evicted entries fall back into the
	// single-table so forwarding information survives eviction.
	// Ablation only.
	CacheAdmitAll bool
	// AgingOff disables the aging rule of Fig. 4: tables order by raw
	// average instead of aged average. Ablation only.
	AgingOff bool
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	if c.SingleSize <= 0 {
		return fmt.Errorf("core: single-table size must be positive, got %d", c.SingleSize)
	}
	if c.MultipleSize <= 0 {
		return fmt.Errorf("core: multiple-table size must be positive, got %d", c.MultipleSize)
	}
	if c.CachingSize <= 0 {
		return fmt.Errorf("core: caching-table size must be positive, got %d", c.CachingSize)
	}
	switch c.Backend {
	case BackendBTree, BackendSlice, BackendSkipList, BackendList:
	default:
		return fmt.Errorf("core: unknown ordered-table backend %d", int(c.Backend))
	}
	return nil
}

// Tables is one proxy's complete mapping-table state: the single-, multiple-
// and caching tables plus the Update_Entry logic that moves entries between
// them (paper Fig. 8). The caching table doubles as the cache itself — its
// entries "represent actually stored objects" (§III.3.3); since the testbed
// does not move payloads (§V.1), membership is storage.
//
// A unified directory (one open-addressing index over all three tables)
// resolves every membership question — Lookup, IsCached, ForwardLocation
// and the find phase of Update — with one probe: it maps the object to its
// entry, and the entry records which table holds it. The tables themselves
// keep no per-table index and are touched only by position (RemoveEntry,
// Insert). The directory is disabled in the paper-faithful timing modes
// (SingleScan, BackendList) so the Fig. 15 ablation measures element-wise
// search exactly as the paper did.
type Tables struct {
	single   *SingleTable
	multiple Ordered
	caching  Ordered

	// dir maps every known object to its entry; nil in the
	// paper-faithful probe modes.
	dir *directory
	// arena slab-allocates entries and takes back the ones the system
	// forgets, before the update that forgot them returns.
	arena entryArena
	// evicted is the object the latest update demoted out of the
	// caching table (see Evicted).
	evicted ids.ObjectID

	admitAll bool
	agingOff bool
}

// NewTables builds the three tables for one proxy.
func NewTables(cfg Config) (*Tables, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	caching := NewOrdered(cfg.CachingSize, cfg.Backend)
	if cfg.CacheAdmitAll {
		caching = newLRUOrdered(cfg.CachingSize)
	}
	t := &Tables{
		single:   NewSingleTable(cfg.SingleSize, cfg.SingleScan),
		multiple: NewOrdered(cfg.MultipleSize, cfg.Backend),
		caching:  caching,
		admitAll: cfg.CacheAdmitAll,
		agingOff: cfg.AgingOff,
	}
	if !cfg.SingleScan && cfg.Backend != BackendList {
		t.dir = newDirectory(cfg.SingleSize + cfg.MultipleSize + cfg.CachingSize)
	}
	return t, nil
}

// Single exposes the single-table (read-mostly: dumps, tests, metrics).
func (t *Tables) Single() *SingleTable { return t.single }

// Multiple exposes the multiple-table.
func (t *Tables) Multiple() Ordered { return t.multiple }

// Caching exposes the caching table.
func (t *Tables) Caching() Ordered { return t.caching }

// locate finds the entry for obj, or nil: one directory probe, or — in the
// paper-faithful modes — sequential probes "in the order caching table,
// multiple-table and single-table" (§IV.3). The entry's kind names its
// table either way.
func (t *Tables) locate(obj ids.ObjectID) *Entry {
	if t.dir != nil {
		return t.dir.get(obj)
	}
	if e := t.caching.Get(obj); e != nil {
		return e
	}
	if e := t.multiple.Get(obj); e != nil {
		return e
	}
	return t.single.Get(obj)
}

// kindOf returns the table holding e, KindNone for a nil entry.
func kindOf(e *Entry) Kind {
	if e == nil {
		return KindNone
	}
	return e.kind
}

// IsCached reports whether obj is in the local cache, i.e. has a caching-
// table entry.
func (t *Tables) IsCached(obj ids.ObjectID) bool {
	if t.dir == nil {
		return t.caching.Contains(obj)
	}
	return kindOf(t.dir.get(obj)) == KindCaching
}

// Lookup finds the entry for obj and the table holding it, searching "in
// the order caching table, multiple-table and single-table" (§IV.3). It
// never mutates state. The entry stays valid for UpdateEntry and for
// reading until the next call that changes the tables.
func (t *Tables) Lookup(obj ids.ObjectID) (*Entry, Kind) {
	e := t.locate(obj)
	return e, kindOf(e)
}

// Outcome reports what an update did, so the proxy can maintain its
// counters and tests can assert the promotion/demotion chains. It is one
// word: the From and To tables in the low two bytes, one bit per side
// effect above them. The per-event path returns it in a register; a
// multi-field struct returned by value is assembled on the stack with
// narrow stores and copied out with a wide load that cannot be forwarded
// from them, stalling the caller on every update (DESIGN.md §8).
type Outcome uint32

const (
	outToShift      = 8
	outCacheEvicted = Outcome(1) << 16
	outMultEvicted  = Outcome(1) << 17
	outDropped      = Outcome(1) << 18
)

// moved is the outcome of an update that took an entry from table from
// to table to, with no side effects.
func moved(from, to Kind) Outcome { return Outcome(from) | Outcome(to)<<outToShift }

// From is the table the entry was found in; KindNone means a new entry
// was created (Part 4).
func (o Outcome) From() Kind { return Kind(o & 0xFF) }

// To is the table the entry ended up in.
func (o Outcome) To() Kind { return Kind(o >> outToShift & 0xFF) }

// CacheEvicted reports that an entry was demoted out of the caching table
// to make room (into the multiple-table, or onto the single-table top in
// the LRU and replication paths). Tables.Evicted names its object.
func (o Outcome) CacheEvicted() bool { return o&outCacheEvicted != 0 }

// MultipleEvicted reports that an entry was demoted from the
// multiple-table onto the top of the single-table to make room.
func (o Outcome) MultipleEvicted() bool { return o&outMultEvicted != 0 }

// Dropped reports that an entry fell off the bottom of the single-table:
// the system forgot it, and its memory is already back in the arena.
func (o Outcome) Dropped() bool { return o&outDropped != 0 }

// TraceArg packs the outcome into the Arg of a hit or backward trace event
// (obs.EncodeOutcome).
func (o Outcome) TraceArg() int64 {
	return obs.EncodeOutcome(int(o.From()), int(o.To()), o.CacheEvicted(), o.MultipleEvicted(), o.Dropped())
}

// String implements fmt.Stringer: "single→multiple", then the side effects.
func (o Outcome) String() string {
	s := o.From().String() + "→" + o.To().String()
	if o.CacheEvicted() {
		s += " cache-evicted"
	}
	if o.MultipleEvicted() {
		s += " multiple-evicted"
	}
	if o.Dropped() {
		s += " dropped"
	}
	return s
}

// Update is the paper's Update_Entry(Object, Location) (Fig. 8), executed
// at proxy-local logical time now. It finds the entry (one directory probe,
// or table-order probes in the paper-faithful modes) and hands it to
// UpdateEntry.
func (t *Tables) Update(obj ids.ObjectID, loc ids.NodeID, now int64) Outcome {
	return t.UpdateEntry(obj, t.locate(obj), loc, now)
}

// UpdateEntry is Update for a caller that already holds obj's entry from
// Lookup (nil when obj is unknown), so the event costs one table probe in
// all. No call that changes the tables may come between the Lookup and
// this call.
//
// It folds the new access into the entry via CalcAverage, rewrites the
// location, and applies the promotion rules:
//
//   - caching-table entries are updated in place (re-inserted in order);
//   - multiple-table entries move into the caching table when their aged
//     average beats the cache's worst case, demoting that worst case into
//     the multiple-table;
//   - single-table entries move into the multiple-table under the same
//     rule, demoting the multiple-table's worst onto the single-table top;
//   - unknown objects get a fresh entry on top of the single-table.
//
// A table that is not yet full accepts any candidate; a full table demands
// the candidate beat its current worst entry, matching "newly arriving
// objects have to have a lower average value than the worst case currently
// residing in the table" (§III.3.2).
//
// Entries are always removed from their table before CalcAverage mutates
// the key: position-based removal (RemoveEntry) locates the entry by its
// stored key.
func (t *Tables) UpdateEntry(obj ids.ObjectID, e *Entry, loc ids.NodeID, now int64) Outcome {
	if t.admitAll {
		return t.updateLRU(obj, e, loc, now)
	}

	switch kindOf(e) {
	case KindCaching:
		// Part 1: caching table — update in place.
		t.caching.RemoveEntry(e)
		e.CalcAverage(now)
		e.Location = loc
		t.caching.Insert(e) // room is guaranteed: we just removed e
		return moved(KindCaching, KindCaching)

	case KindMultiple:
		// Part 2: multiple-table.
		t.multiple.RemoveEntry(e)
		e.CalcAverage(now)
		e.Location = loc
		if t.admits(t.caching, e) {
			e.kind = KindCaching
			if evicted := t.caching.Insert(e); evicted != nil {
				// The demoted worst returns to the
				// multiple-table, which has room because e
				// just left it.
				evicted.kind = KindMultiple
				t.multiple.Insert(evicted)
				t.evicted = evicted.Object
				return moved(KindMultiple, KindCaching) | outCacheEvicted
			}
			return moved(KindMultiple, KindCaching)
		}
		t.multiple.Insert(e)
		return moved(KindMultiple, KindMultiple)

	case KindSingle:
		// Part 3: single-table.
		t.single.RemoveEntry(e)
		e.CalcAverage(now)
		e.Location = loc
		if t.admits(t.multiple, e) {
			e.kind = KindMultiple
			if evicted := t.multiple.Insert(e); evicted != nil {
				// The multiple-table's worst goes on top of
				// the single-table (Fig. 8 Part 3); the
				// single-table has room because e just left.
				t.pushSingle(evicted)
				return moved(KindSingle, KindMultiple) | outMultEvicted
			}
			return moved(KindSingle, KindMultiple)
		}
		return moved(KindSingle, KindSingle) | t.pushSingle(e)
	}

	// Part 4: unknown object — new entry on top of the single-table.
	e = t.alloc(obj, loc, now)
	return moved(KindNone, KindSingle) | t.pushSingle(e)
}

// updateLRU is the CacheAdmitAll ablation: every passing object is cached
// immediately with plain LRU replacement, no selectivity. The entry is
// pulled from whichever table currently holds it so the usual bookkeeping
// (average, location, single-occupancy invariant) still applies; evictions
// land on top of the single-table so the proxy keeps routing knowledge.
func (t *Tables) updateLRU(obj ids.ObjectID, e *Entry, loc ids.NodeID, now int64) Outcome {
	from := kindOf(e)
	switch from {
	case KindCaching:
		t.caching.RemoveEntry(e)
	case KindMultiple:
		t.multiple.RemoveEntry(e)
	case KindSingle:
		t.single.RemoveEntry(e)
	default:
		e = t.alloc(obj, loc, now)
	}
	if from != KindNone {
		e.CalcAverage(now)
		e.Location = loc
	}
	e.kind = KindCaching
	evicted := t.caching.Insert(e)
	switch evicted {
	case nil:
		return moved(from, KindCaching)
	case e:
		// Zero-capacity cache bounced the entry itself; the system
		// forgets it (unreachable after Validate).
		t.drop(e)
		return moved(from, KindNone) | outDropped
	}
	t.evicted = evicted.Object
	return moved(from, KindCaching) | outCacheEvicted | t.pushSingle(evicted)
}

// pushSingle puts e on top of the single-table. The entry that falls off
// the bottom, if any, is forgotten and returned to the arena; the result
// is the outcome's Dropped bit.
func (t *Tables) pushSingle(e *Entry) Outcome {
	e.kind = KindSingle
	if dropped := t.single.InsertTop(e); dropped != nil {
		t.drop(dropped)
		return outDropped
	}
	return 0
}

// alloc hands out a fresh entry from the arena, configured for this
// proxy's aging mode and recorded in the directory. The caller places it
// in a table.
func (t *Tables) alloc(obj ids.ObjectID, loc ids.NodeID, now int64) *Entry {
	e := t.arena.get(obj, loc, now)
	e.noAge = t.agingOff
	if t.dir != nil {
		t.dir.put(e)
	}
	return e
}

// forget removes an entry that has left every table from the directory.
func (t *Tables) forget(e *Entry) {
	if t.dir != nil {
		t.dir.del(e.Object)
	}
	e.kind = KindNone
}

// drop forgets an entry that has left every table and returns it to the
// arena, which may hand it out again on the next allocation.
func (t *Tables) drop(e *Entry) {
	t.forget(e)
	t.arena.put(e)
}

// Evicted returns the object the latest update that reported CacheEvicted
// demoted out of the caching table. A caller that stores payloads beside
// the tables (the HTTP farm) deletes that object's payload.
func (t *Tables) Evicted() ids.ObjectID { return t.evicted }

// admits reports whether ordered table dst accepts candidate e: a table
// with free space accepts anything; a full table demands the candidate beat
// the worst resident (strictly smaller aged average, i.e. Key).
func (t *Tables) admits(dst Ordered, e *Entry) bool {
	if dst.Cap() == 0 {
		return false
	}
	if dst.Len() < dst.Cap() {
		return true
	}
	worst, ok := dst.WorstKey()
	if !ok {
		return true
	}
	return e.Key() < worst
}

// Invalidate forgets obj's mapping entry when it lives in the single- or
// multiple-table, returning whether an entry was removed. It is the
// demotion half of the recovery protocol's stale-location handling: a
// learned location that stopped answering (crashed or partitioned peer) is
// dropped so forwarding falls back to random selection and backwarding can
// re-converge on a live resolver. Caching-table entries are untouched —
// they represent objects stored locally, whose data is valid regardless of
// what happened to a remote peer.
func (t *Tables) Invalidate(obj ids.ObjectID) bool {
	e := t.locate(obj)
	switch kindOf(e) {
	case KindSingle:
		t.single.RemoveEntry(e)
	case KindMultiple:
		t.multiple.RemoveEntry(e)
	default:
		return false
	}
	t.drop(e)
	return true
}

// ForwardLocation resolves the forwarding address for obj from the mapping
// tables (the paper's Forward_Addr, Fig. 6). ok is false when no table has
// an entry, in which case the proxy falls back to random peer selection.
func (t *Tables) ForwardLocation(obj ids.ObjectID) (ids.NodeID, bool) {
	if e := t.locate(obj); e != nil {
		return e.Location, true
	}
	return ids.None, false
}

// Len returns the total number of entries across the three tables.
func (t *Tables) Len() int {
	return t.single.Len() + t.multiple.Len() + t.caching.Len()
}
