package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	//   root    [0,100]
	//   ├─ a    [10,40]
	//   │  └─ c [15,20]
	//   ├─ b    [30,60]   overlaps a: [30,40] counts once in root's children
	//   └─ d    [90,120]  reaches past root's end: only [90,100] counts
	ivs := []interval{{0, 100}, {10, 40}, {30, 60}, {15, 20}, {90, 120}}
	parents := []int{-1, 0, 0, 1, 0}
	got := selfTimes(ivs, parents)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestSelfTimesSequentialChildrenSumToParent(t *testing.T) {
	// A chain of exchanges: the self times of a tree without overlap add
	// up to the root's duration.
	ivs := []interval{{0, 1000}, {100, 900}, {200, 800}, {300, 400}}
	parents := []int{-1, 0, 1, 2}
	var sum int64
	for _, s := range selfTimes(ivs, parents) {
		sum += s
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
}

func TestSpanParents(t *testing.T) {
	spans := []fspan{
		{From: fromClient, To: 2, Req: "r1", Fwd: 0}, // 0: client → p2
		{From: 2, To: 4, Req: "r1", Fwd: 1},          // 1: p2 → p4
		{From: 4, To: 2, Req: "r1", Fwd: 2},          // 2: p4 → p2 (loop)
		{From: 2, To: toOrigin, Req: "r1", Fwd: 3},   // 3: p2 → origin, from the looped visit
		{From: fromClient, To: 1, Req: "r2", Fwd: 0}, // 4: another request
		{From: 3, To: 1, Req: "r3", Fwd: 1},          // 5: parent never recorded
	}
	got := spanParents(spans)
	want := []int{-1, 0, 1, 2, -1, -1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parents %v, want %v", got, want)
	}
}
