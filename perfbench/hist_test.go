package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistQuantilesMatchSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 1000, 100_000} {
		var h Hist
		xs := make([]int64, n)
		for i := range xs {
			// Log-uniform over 1 µs .. 30 s.
			xs[i] = int64(math.Exp(rng.Float64()*math.Log(3e7)) * 1000)
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			want := float64(xs[max(rank, 1)-1])
			got := h.Quantile(q)
			if math.Abs(got-want) > want/histSub {
				t.Errorf("n=%d q=%v: got %.0f ns, sorted sample %.0f ns (more than 1/%d apart)", n, q, got, want, histSub)
			}
		}
	}
}

func TestHistRangeEnds(t *testing.T) {
	var h Hist
	h.Record(500)              // below 1 µs
	h.Record(2 * histMaxNs)    // beyond 60 s
	h.Record(histMaxNs - 1000) // just inside
	if h.Overflow() != 1 {
		t.Errorf("overflow %d, want 1", h.Overflow())
	}
	if got := h.Quantile(0.1); got >= histMinNs {
		t.Errorf("lowest value read %v ns, want below 1 µs", got)
	}
	if got := h.Quantile(1); got != histMaxNs {
		t.Errorf("top quantile %v, want the overflow bucket at 60 s", got)
	}
	if got, want := h.Quantile(0.6), float64(histMaxNs-1000); math.Abs(got-want) > want/histSub {
		t.Errorf("value just under 60 s read %v", got)
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram should read 0")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all Hist
	for i := int64(1); i <= 2000; i++ {
		v := i * 7919 % 5_000_000
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("q=%v: merged %v, direct %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
	if a.Count() != all.Count() || a.Overflow() != all.Overflow() {
		t.Errorf("merged count %d, direct %d", a.Count(), all.Count())
	}
}
