package main

// Times of one open-loop request, in nanoseconds since the window opened.
// Done is zero for a request that did not complete: never sent, or failed.
type reqTimes struct {
	Due, Sent, Done int64
}

func (r reqTimes) completed() bool { return r.Done > 0 }

// replayed is the latency accounting of one connection's completed
// requests.
type replayed struct {
	// Due is each completed request's due time.
	Due []int64
	// Lat is the replayed latency of each completed request: its measured
	// service time plus the wait it would have had behind the previous
	// request on its connection had the generator sent on time.
	Lat []int64
	// Raw is the plain due-time latency (Done − Due), which also charges
	// the generator's own lateness to the program.
	Raw []int64
	// Oversleep is how late the generator sent each request after it
	// could have: Sent − max(Due, previous Done).
	Oversleep []int64
}

// replay derives the latencies of one connection's requests, given in the
// order the connection sent them. A connection carries one request at a
// time, so request i can start only when it is due and request i−1 is done.
// Replaying that rule with each request's measured service time (Done −
// Sent) keeps every wait the program causes — a slow reply delays the
// requests queued behind it — and drops every wait the generator causes,
// because a late send shortens nothing in the replay.
func replay(reqs []reqTimes) replayed {
	var out replayed
	var virtDone, prevDone int64 // replayed and actual completion of the previous request
	first := true
	for _, r := range reqs {
		if !r.completed() {
			continue
		}
		start := r.Due
		if !first && virtDone > start {
			start = virtDone
		}
		virtDone = start + (r.Done - r.Sent)
		out.Due = append(out.Due, r.Due)
		out.Lat = append(out.Lat, virtDone-r.Due)
		out.Raw = append(out.Raw, r.Done-r.Due)

		ready := r.Due
		if !first && prevDone > ready {
			ready = prevDone
		}
		late := r.Sent - ready
		if late < 0 {
			late = 0
		}
		out.Oversleep = append(out.Oversleep, late)
		prevDone = r.Done
		first = false
	}
	return out
}
