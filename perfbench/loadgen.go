package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
)

// loadConns is the number of client connections the generator drives the
// farm with. Each carries one request at a time.
const loadConns = 2

// load describes one phase of traffic: an open loop at a fixed rate, or a
// closed loop (rate 0) where each connection sends as soon as its previous
// request is done.
type load struct {
	rate   float64 // offered req/s; 0 = closed loop
	window time.Duration
	// drain sends every request due in the window however late, and waits
	// for all of them; otherwise sending stops when the window closes.
	drain bool
	// count stops a closed loop after this many requests (0: when the
	// window closes).
	count int
	objs  []ids.ObjectID // request i asks for objs[(first+i) % len]
	first int
	tag   string // request-ID prefix, unique per phase
	seed  int64  // picks each request's entry proxy
}

// loadResult is what one phase measured.
type loadResult struct {
	conns     [loadConns][]reqTimes
	offered   int // requests due in the window (open loop), or sent (closed)
	sent      int
	completed int
	inWindow  int // completed before the window closed
	// sentInWindow counts requests the generator sent before the window
	// closed: the share of the offered load it actually put out.
	sentInWindow int
	hits         int // completed requests served from a proxy cache
	errors       int // requests with no reply
	problems     []string
}

// maxProblems bounds how many bad replies a phase reports in full.
const maxProblems = 5

// drive runs one phase against the farm's proxies. Connection k sends
// requests k, k+loadConns, … and paces them with its own pacer.
func (s *farmSetup) drive(l load) *loadResult {
	res := &loadResult{}
	if l.rate > 0 {
		res.offered = int(float64(l.window) * l.rate / 1e9)
		if float64(res.offered)/l.rate*1e9 < float64(l.window) {
			res.offered++
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := int64(l.window)
	wg.Add(loadConns)
	for k := 0; k < loadConns; k++ {
		go func(k int) {
			defer wg.Done()
			var recs []reqTimes
			var hits, errs int
			var problems []string
			for j := k; ; j += loadConns {
				var due int64
				if l.rate > 0 {
					if j >= res.offered {
						break
					}
					due = int64(float64(j) * 1e9 / l.rate)
					s.pacers[k].sleepUntil(start.Add(time.Duration(due)))
				} else if l.count > 0 && j >= l.count {
					break
				}
				sent := int64(time.Since(start))
				if sent >= end && (!l.drain || l.rate == 0) {
					break
				}
				if l.rate == 0 {
					due = sent
				}
				obj := l.objs[(l.first+j)%len(l.objs)]
				url := s.urls[entryFor(l.seed, l.tag, j, len(s.urls))]
				hit, done, err := exchange(s.client, url, obj, l.tag+strconv.Itoa(j), start)
				r := reqTimes{Due: due, Sent: sent}
				switch {
				case err == nil:
					r.Done = done
					if hit {
						hits++
					}
				case isBadReply(err):
					r.Done = done
					if len(problems) < maxProblems {
						problems = append(problems, err.Error())
					}
				default:
					errs++
				}
				recs = append(recs, r)
			}
			mu.Lock()
			defer mu.Unlock()
			res.conns[k] = recs
			res.hits += hits
			res.errors += errs
			res.problems = append(res.problems, problems...)
		}(k)
	}
	wg.Wait()
	for _, recs := range res.conns {
		res.sent += len(recs)
		for _, r := range recs {
			if r.Sent < end {
				res.sentInWindow++
			}
			if r.completed() {
				res.completed++
				if r.Done <= end {
					res.inWindow++
				}
			}
		}
	}
	if l.rate == 0 {
		res.offered = res.sent
	}
	return res
}

// entryFor picks the entry proxy of request j of a phase from the seed.
func entryFor(seed int64, tag string, j, n int) int {
	h := uint64(seed)
	for i := 0; i < len(tag); i++ {
		h = h*31 + uint64(tag[i])
	}
	return int(splitmix(h^uint64(j)*0x9E3779B97F4A7C15) % uint64(n))
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// badReply is a reply that arrived but is wrong: not 200, or a body other
// than the object's canonical payload.
type badReply struct{ msg string }

func (e *badReply) Error() string { return e.msg }

func isBadReply(err error) bool {
	_, ok := err.(*badReply)
	return ok
}

// exchange fetches obj through the proxy at base and checks the reply. It
// returns whether a proxy cache served it and when the body was complete
// (nanoseconds since start), taken before the payload check.
func exchange(client *http.Client, base string, obj ids.ObjectID, reqID string, start time.Time) (hit bool, done int64, err error) {
	req, err := http.NewRequest(http.MethodGet, httpproxy.ObjectURL(base, obj), nil)
	if err != nil {
		return false, 0, err
	}
	req.Header.Set(httpproxy.HeaderRequestID, reqID)
	resp, err := client.Do(req)
	if err != nil {
		return false, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read side
	done = int64(time.Since(start))
	if err != nil {
		return false, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, done, &badReply{fmt.Sprintf("%s: object %d: status %d", reqID, obj, resp.StatusCode)}
	}
	if !bytes.Equal(body, httpproxy.Payload(obj)) {
		return false, done, &badReply{fmt.Sprintf("%s: object %d: wrong payload %q", reqID, obj, body)}
	}
	return resp.Header.Get(httpproxy.HeaderOrigin) != "1", done, nil
}

// latencies is a phase's latency accounting over all connections.
type latencies struct {
	lat, raw, oversleep Hist
	// sub holds the replayed latencies of each sub-window of the phase,
	// by due time.
	sub []Hist
}

// latencies replays every connection and merges the results, also split
// into subs equal sub-windows of window by due time.
func (r *loadResult) latencies(window time.Duration, subs int) *latencies {
	out := &latencies{sub: make([]Hist, subs)}
	for _, recs := range r.conns {
		rp := replay(recs)
		for i := range rp.Lat {
			out.lat.Record(rp.Lat[i])
			out.raw.Record(rp.Raw[i])
			out.oversleep.Record(rp.Oversleep[i])
			k := int(rp.Due[i] * int64(subs) / int64(window))
			out.sub[min(max(k, 0), subs-1)].Record(rp.Lat[i])
		}
	}
	return out
}

// subQuantile is the median over sub-windows of each one's q-quantile, in
// nanoseconds. A stall of the host shorter than a sub-window moves one
// sub-window's tail, not the median.
func (l *latencies) subQuantile(q float64) float64 {
	var qs []float64
	for i := range l.sub {
		if l.sub[i].Count() > 0 {
			qs = append(qs, l.sub[i].Quantile(q))
		}
	}
	return median(qs)
}
