package main

import "testing"

const us = int64(1000)

// onTime sends each request when it is due or, if the connection is still
// busy, as soon as the previous one is done — a generator with no lateness
// of its own.
func onTime(due []int64, service func(i int) int64, late map[int]int64) []reqTimes {
	out := make([]reqTimes, len(due))
	var prevDone int64
	for i, d := range due {
		sent := max(d, prevDone) + late[i]
		out[i] = reqTimes{Due: d, Sent: sent, Done: sent + service(i)}
		prevDone = out[i].Done
	}
	return out
}

func every(n int, gap int64) []int64 {
	due := make([]int64, n)
	for i := range due {
		due[i] = 1 + int64(i)*gap
	}
	return due
}

func TestReplayDropsGeneratorOversleep(t *testing.T) {
	// Service 100 µs, one request due every 200 µs; the generator oversleeps
	// by 1 ms before request 3, which also delays the requests after it.
	reqs := onTime(every(10, 200*us), func(int) int64 { return 100 * us }, map[int]int64{3: 1000 * us})
	rp := replay(reqs)
	for i, lat := range rp.Lat {
		if lat != 100*us {
			t.Errorf("request %d: replayed latency %d µs, want 100 (the oversleep must not count)", i, lat/us)
		}
	}
	if rp.Oversleep[3] != 1000*us {
		t.Errorf("request 3: oversleep %d µs, want 1000", rp.Oversleep[3]/us)
	}
	for i, o := range rp.Oversleep {
		if i != 3 && o != 0 {
			t.Errorf("request %d: oversleep %d µs, want 0", i, o/us)
		}
	}
	if rp.Raw[3] != 1100*us || rp.Raw[4] <= 100*us {
		t.Errorf("raw latencies %v should still show the generator's delay", rp.Raw[3:6])
	}
}

func TestReplayKeepsProgramWaits(t *testing.T) {
	// Service 300 µs at one request per 200 µs: the connection falls
	// further behind with every request, and that wait is the program's.
	reqs := onTime(every(6, 200*us), func(int) int64 { return 300 * us }, nil)
	rp := replay(reqs)
	for i, lat := range rp.Lat {
		if want := (300 + 100*int64(i)) * us; lat != want {
			t.Errorf("request %d: latency %d µs, want %d", i, lat/us, want/us)
		}
		if rp.Raw[i] != lat || rp.Oversleep[i] != 0 {
			t.Errorf("request %d: raw %d, oversleep %d; with no generator lateness both should match the replay", i, rp.Raw[i], rp.Oversleep[i])
		}
	}
}

func TestReplaySlowReplyDelaysLaterRequests(t *testing.T) {
	// One 1 ms reply among 100 µs ones, with an oversleep on top: the queue
	// behind the slow reply stays in the latencies, the oversleep does not.
	svc := func(i int) int64 {
		if i == 2 {
			return 1000 * us
		}
		return 100 * us
	}
	rp := replay(onTime(every(8, 200*us), svc, map[int]int64{5: 500 * us}))
	want := []int64{100, 100, 1000, 900, 800, 700, 600, 500}
	for i, w := range want {
		if rp.Lat[i] != w*us {
			t.Errorf("request %d: latency %d µs, want %d", i, rp.Lat[i]/us, w)
		}
	}
}

func TestReplaySkipsIncomplete(t *testing.T) {
	reqs := []reqTimes{{Due: 1, Sent: 1, Done: 101}, {Due: 201}, {Due: 401, Sent: 401, Done: 501}}
	rp := replay(reqs)
	if len(rp.Lat) != 2 || rp.Lat[0] != 100 || rp.Lat[1] != 100 {
		t.Fatalf("latencies %v, want [100 100]", rp.Lat)
	}
}
