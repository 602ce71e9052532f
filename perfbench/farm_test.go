package main

import (
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/httpproxy"
)

// TestTracedFarmSmoke drives a small traced farm from both connections at
// once: the counters must agree with the client, every request must give
// one root span, and every proxy span must link to its parent.
func TestTracedFarmSmoke(t *testing.T) {
	rec := &spanRecorder{}
	client := httpproxy.NewClient()
	client.Transport = &tracingTransport{from: fromClient, inner: client.Transport, rec: rec}
	s, err := farmPaper.setUp(3, 600, func() (*httpproxy.Farm, error) { return newTracedFarm(3, rec) }, client)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rec.take()

	rep := &report{}
	window := 300 * time.Millisecond
	res, c := farmPaper.fixedWindow(s, 3, window)
	checkReplies(rep, "window", res.problems)
	checkCounters(rep, "window", res, c)
	for _, p := range rep.problems {
		t.Error(p)
	}
	if res.completed != res.offered || res.errors != 0 {
		t.Fatalf("%d of %d requests completed, %d errors", res.completed, res.offered, res.errors)
	}
	st := analyzeSpans(rec.take())
	if st.roots != res.sent {
		t.Errorf("%d root spans for %d requests", st.roots, res.sent)
	}
	if st.orphanNs != 0 {
		t.Errorf("%d ns of spans without a parent", st.orphanNs)
	}
	if st.peer == 0 || st.originNs == 0 {
		t.Errorf("the paper stream should forward to peers (%d) and the origin (%d ns)", st.peer, st.originNs)
	}
	lat := res.latencies(window, 3)
	if lat.lat.Count() != uint64(res.completed) || lat.subQuantile(0.5) <= 0 {
		t.Errorf("latencies: %d recorded, median sub-window p50 %v", lat.lat.Count(), lat.subQuantile(0.5))
	}
}
