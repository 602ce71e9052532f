package core

import (
	"math/rand/v2"

	"github.com/adc-sim/adc/internal/ids"
)

// directory is the unified object index of one proxy's mapping tables: a
// fixed-size open-addressing hash table from object to entry, probed
// linearly. The entry itself records which table holds it (Entry.kind), so
// a lookup answers both "is it known" and "where" with one probe, and
// moving an entry between tables never touches the directory.
//
// The table is sized once to a power of two at least twice the tables'
// combined capacity. Every known object lives in exactly one table, so the
// load factor never exceeds one half and the table never grows. Deletion
// shifts the rest of the probe run backward (no tombstones), so probe runs
// stay as short as the load allows however long the churn goes on.
//
// The hash is seeded per directory from a random source: object IDs come
// from URLs in the HTTP farm, and a fixed hash would let a client pick IDs
// that all land in one probe run. The directory is never iterated, so the
// seed changes only slot positions, never what the tables decide.
type directory struct {
	slots []dirSlot
	mask  uint64
	seed  uint64
}

// dirSlot is one directory cell; e == nil marks it empty (object 0 is a
// valid ID, so the object field cannot serve as the marker).
type dirSlot struct {
	obj ids.ObjectID
	e   *Entry
}

// newDirectory returns a directory for at most capacity live objects.
func newDirectory(capacity int) *directory {
	size := 16
	for size < 2*capacity {
		size <<= 1
	}
	return &directory{
		slots: make([]dirSlot, size),
		mask:  uint64(size - 1),
		seed:  rand.Uint64(),
	}
}

// home returns obj's preferred slot: the seeded object ID through a
// 64-bit finalizer (murmur3's fmix64), so every input bit reaches the low
// bits the mask keeps — strided IDs such as k<<32 spread like random ones.
func (d *directory) home(obj ids.ObjectID) uint64 {
	x := uint64(obj) ^ d.seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x & d.mask
}

// get returns obj's entry, or nil when obj is unknown.
func (d *directory) get(obj ids.ObjectID) *Entry {
	for i := d.home(obj); ; i = (i + 1) & d.mask {
		s := &d.slots[i]
		if s.e == nil || s.obj == obj {
			return s.e
		}
	}
}

// put records e under its object, which must not be present yet.
func (d *directory) put(e *Entry) {
	i := d.home(e.Object)
	for d.slots[i].e != nil {
		i = (i + 1) & d.mask
	}
	d.slots[i] = dirSlot{obj: e.Object, e: e}
}

// del forgets obj, which must be present. Later members of the probe run
// that may legally sit in the freed slot move back into it, repeatedly, so
// every remaining object stays reachable from its home without tombstones.
func (d *directory) del(obj ids.ObjectID) {
	i := d.home(obj)
	for d.slots[i].obj != obj || d.slots[i].e == nil {
		if d.slots[i].e == nil {
			panic("core: directory delete of an unknown object")
		}
		i = (i + 1) & d.mask
	}
	for j := (i + 1) & d.mask; d.slots[j].e != nil; j = (j + 1) & d.mask {
		// The object at j may move to the hole at i only if its home
		// does not lie cyclically in (i, j].
		if (j-d.home(d.slots[j].obj))&d.mask >= (j-i)&d.mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = dirSlot{}
}
