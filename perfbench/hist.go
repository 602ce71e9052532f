package main

import "math"

// Hist is a log-linear latency histogram over nanosecond values. It covers
// 1 µs to 60 s: every power-of-two octave above 1 µs is split into
// histSub equal-width buckets, so a bucket is at most 1/histSub of its
// value wide (≈1.6%). Values below 1 µs share one underflow bucket; values
// at or above 60 s are counted in their own overflow bucket instead of
// being clamped into the top of the range.
type Hist struct {
	under  uint64
	counts [histOctaves * histSub]uint64
	over   uint64
	n      uint64
}

const (
	histMinNs   = 1000           // 1 µs
	histMaxNs   = 60_000_000_000 // 60 s
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histOctaves covers [1 µs, 1 µs·2^26 ≈ 67 s), which contains 60 s.
	histOctaves = 26
)

// Record adds one value in nanoseconds.
func (h *Hist) Record(ns int64) {
	h.n++
	switch {
	case ns < histMinNs:
		h.under++
	case ns >= histMaxNs:
		h.over++
	default:
		h.counts[histIndex(ns)]++
	}
}

// histIndex maps a value in [histMinNs, histMaxNs) to its bucket.
func histIndex(ns int64) int {
	x := uint64(ns) // ≥ histMinNs
	oct := 0
	for x>>(oct+1) >= histMinNs {
		oct++
	}
	// Within octave oct the value lies in [min·2^oct, min·2^(oct+1)).
	base := uint64(histMinNs) << oct
	sub := (x - base) * histSub / base
	return oct*histSub + int(sub)
}

// Merge adds o's counts into h.
func (h *Hist) Merge(o *Hist) {
	h.under += o.under
	h.over += o.over
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Overflow returns how many values were at or above 60 s.
func (h *Hist) Overflow() uint64 { return h.over }

// Quantile returns the q-quantile in nanoseconds: the ceil(q·n)-th smallest
// value, located by its bucket and placed inside the bucket by linear
// interpolation on its rank among the bucket's values. The estimate is
// within one bucket width (≤ 1/64 of the value) of the exact sample. The
// underflow bucket spans [0, 1 µs) and the overflow bucket reads 60 s. An
// empty histogram reads 0.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	inBucket := func(lo, width float64, before, c uint64) float64 {
		return lo + (float64(rank-before)-0.5)/float64(c)*width
	}
	if rank <= h.under {
		return inBucket(0, histMinNs, 0, h.under)
	}
	seen := h.under
	for i, c := range h.counts {
		if seen+c >= rank {
			oct, sub := i/histSub, i%histSub
			base := float64(uint64(histMinNs) << oct)
			width := base / histSub
			return inBucket(base+float64(sub)*width, width, seen, c)
		}
		seen += c
	}
	return histMaxNs
}

// QuantileUs is Quantile in microseconds.
func (h *Hist) QuantileUs(q float64) float64 { return h.Quantile(q) / 1e3 }
