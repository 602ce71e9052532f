package core

import "github.com/adc-sim/adc/internal/ids"

// btreeTable is the default ordered-table backend: a bounded two-level
// B-tree over (Key, Object) — a slice of small sorted blocks. Finding a
// block is a binary search over the block maxima, finding the position
// inside a block a second binary search; inserts and deletes memmove at
// most one block (≤ btreeMaxBlock items) instead of the whole table, so
// the reference 20k-entry tables (§V.2) never pay the sorted slice's O(n)
// shifting cost. This is the "more adapted data structure [that] should
// provide speed-ups" the paper calls for in §V.3.3.
//
// Each block item stores the entry's Key beside the entry pointer, so a
// binary search reads contiguous keys and dereferences an entry only to
// break a tie between equal keys by Object. Keys cannot go stale: an
// entry's key is constant while it is stored (see Ordered).
//
// The structure is purely comparison-based over the same total order as
// every other backend, so promotion and demotion decisions — and with them
// all experiment outputs — are identical to the paper's sorted slice
// (asserted by the cross-backend equivalence tests and the cluster
// determinism test).
type btreeTable struct {
	capacity int
	// blocks hold the entries: each block is sorted ascending by
	// (Key, Object), non-empty, and every entry of block i orders before
	// every entry of block i+1.
	blocks [][]btItem
	size   int
	// freeBlocks recycles split/merged block arrays so steady-state
	// churn allocates nothing.
	freeBlocks [][]btItem
}

// btItem is one block slot: the entry and its cached Key.
type btItem struct {
	key int64
	e   *Entry
}

// before reports whether it orders strictly before the entry e with key
// key under the (Key, Object) order of less.
func (it btItem) before(key int64, e *Entry) bool {
	if it.key != key {
		return it.key < key
	}
	return it.e.Object < e.Object
}

// btreeMaxBlock caps a block's length; blocks split in half when they
// exceed it. 128 items = 2 KB of keys and pointers, two cache-friendly
// memmove targets after a split.
const btreeMaxBlock = 128

var _ Ordered = (*btreeTable)(nil)

func newBTreeTable(capacity int) *btreeTable {
	return &btreeTable{capacity: capacity}
}

func (t *btreeTable) Len() int { return t.size }
func (t *btreeTable) Cap() int { return t.capacity }

// findBlock returns the index of the only block that can contain an entry
// ordering as (key, e): the first block whose last item is not before it.
// Returns len(blocks) when e orders after everything stored.
func (t *btreeTable) findBlock(key int64, e *Entry) int {
	lo, hi := 0, len(t.blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		blk := t.blocks[m]
		if blk[len(blk)-1].before(key, e) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchBlock returns the position of the first item of blk not before
// (key, e).
func searchBlock(blk []btItem, key int64, e *Entry) int {
	lo, hi := 0, len(blk)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if blk[m].before(key, e) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (t *btreeTable) Contains(obj ids.ObjectID) bool { return t.Get(obj) != nil }

// Get searches by object. The key is unknown, so this is a linear walk —
// legacy/test path only; the hot path resolves membership through the
// Tables directory.
func (t *btreeTable) Get(obj ids.ObjectID) *Entry {
	for _, blk := range t.blocks {
		for _, it := range blk {
			if it.e.Object == obj {
				return it.e
			}
		}
	}
	return nil
}

func (t *btreeTable) Remove(obj ids.ObjectID) *Entry {
	for bi, blk := range t.blocks {
		for i, it := range blk {
			if it.e.Object == obj {
				t.removeAt(bi, i)
				return it.e
			}
		}
	}
	return nil
}

func (t *btreeTable) RemoveEntry(e *Entry) {
	key := e.Key()
	bi := t.findBlock(key, e)
	// e is present, so bi is in range and its block contains e.
	t.removeAt(bi, searchBlock(t.blocks[bi], key, e))
}

// removeAt deletes item i of block bi, dropping the block when it empties.
func (t *btreeTable) removeAt(bi, i int) {
	blk := t.blocks[bi]
	copy(blk[i:], blk[i+1:])
	blk[len(blk)-1] = btItem{}
	blk = blk[:len(blk)-1]
	if len(blk) == 0 {
		t.freeBlocks = append(t.freeBlocks, blk[:0])
		copy(t.blocks[bi:], t.blocks[bi+1:])
		t.blocks[len(t.blocks)-1] = nil
		t.blocks = t.blocks[:len(t.blocks)-1]
	} else {
		t.blocks[bi] = blk
	}
	t.size--
}

// newBlock returns an empty block with btreeMaxBlock+1 capacity (one slot
// of slack so a block can overflow momentarily before splitting).
func (t *btreeTable) newBlock() []btItem {
	if n := len(t.freeBlocks); n > 0 {
		blk := t.freeBlocks[n-1]
		t.freeBlocks[n-1] = nil
		t.freeBlocks = t.freeBlocks[:n-1]
		return blk
	}
	return make([]btItem, 0, btreeMaxBlock+1)
}

func (t *btreeTable) Insert(e *Entry) *Entry {
	if t.capacity == 0 {
		return e
	}
	it := btItem{key: e.Key(), e: e}
	if len(t.blocks) == 0 {
		blk := append(t.newBlock(), it)
		t.blocks = append(t.blocks, blk)
		t.size++
		return t.evictOverflow()
	}
	bi := t.findBlock(it.key, e)
	if bi == len(t.blocks) {
		bi-- // orders after everything: append to the last block
	}
	blk := t.blocks[bi]
	i := searchBlock(blk, it.key, e)
	blk = append(blk, btItem{})
	copy(blk[i+1:], blk[i:])
	blk[i] = it
	t.blocks[bi] = blk
	t.size++
	if len(blk) > btreeMaxBlock {
		t.splitBlock(bi)
	}
	return t.evictOverflow()
}

// splitBlock halves block bi into two blocks.
func (t *btreeTable) splitBlock(bi int) {
	blk := t.blocks[bi]
	mid := len(blk) / 2
	right := append(t.newBlock(), blk[mid:]...)
	clear(blk[mid:])
	t.blocks[bi] = blk[:mid]
	t.blocks = append(t.blocks, nil)
	copy(t.blocks[bi+2:], t.blocks[bi+1:])
	t.blocks[bi+1] = right
}

// evictOverflow enforces the capacity bound after an insert.
func (t *btreeTable) evictOverflow() *Entry {
	if t.size > t.capacity {
		return t.RemoveWorst()
	}
	return nil
}

func (t *btreeTable) RemoveWorst() *Entry {
	if t.size == 0 {
		return nil
	}
	bi := len(t.blocks) - 1
	blk := t.blocks[bi]
	e := blk[len(blk)-1].e
	t.removeAt(bi, len(blk)-1)
	return e
}

func (t *btreeTable) WorstKey() (int64, bool) {
	if t.size == 0 {
		return 0, false
	}
	blk := t.blocks[len(t.blocks)-1]
	return blk[len(blk)-1].key, true
}

func (t *btreeTable) Each(fn func(*Entry) bool) {
	for _, blk := range t.blocks {
		for _, it := range blk {
			if !fn(it.e) {
				return
			}
		}
	}
}

func (t *btreeTable) Entries() []*Entry {
	out := make([]*Entry, 0, t.size)
	for _, blk := range t.blocks {
		for _, it := range blk {
			out = append(out, it.e)
		}
	}
	return out
}
