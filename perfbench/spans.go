package main

import (
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/adc-sim/adc/internal/httpproxy"
)

// Node indices of farm spans: proxies are 0..n-1.
const (
	fromClient = -1 // the benchmark's own client
	toOrigin   = -2
	toUnknown  = -3
)

// fspan is one HTTP exchange of the traced farm, from the RoundTrip call
// until its response body is closed.
type fspan struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Req   string `json:"req"`
	Fwd   int    `json:"fwd"` // X-Adc-Forwards of the request (0 from the client)
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Hit   bool   `json:"hit"` // the reply came from a proxy cache
	Err   bool   `json:"err,omitempty"`
}

// spanRecorder keeps every span of the traced farm in memory.
type spanRecorder struct {
	mu    sync.Mutex
	spans []fspan
	nodes map[string]int // host:port → node index; written before traffic
	dials atomic.Uint64
}

func (r *spanRecorder) add(s fspan) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a new set.
func (r *spanRecorder) take() []fspan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

func (r *spanRecorder) node(u *url.URL) int {
	if n, ok := r.nodes[u.Host]; ok {
		return n
	}
	return toUnknown
}

// tracingTransport is an http.RoundTripper that records one span per
// exchange made by the node from.
type tracingTransport struct {
	from  int
	inner http.RoundTripper
	rec   *spanRecorder
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := fspan{From: t.from, To: t.rec.node(req.URL), Req: req.Header.Get(httpproxy.HeaderRequestID), Start: mono()}
	s.Fwd, _ = strconv.Atoi(req.Header.Get(httpproxy.HeaderForwards))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		s.End, s.Err = mono(), true
		t.rec.add(s)
		return nil, err
	}
	s.Hit = resp.Header.Get(httpproxy.HeaderOrigin) != "1"
	s.Err = resp.StatusCode != http.StatusOK
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: func() {
		s.End = mono()
		t.rec.add(s)
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// spanParents links each span to the exchange that caused it: a proxy's
// upstream request with X-Adc-Forwards f belongs to the exchange that
// delivered the same request ID to that proxy with f−1. Roots and spans
// whose parent was not recorded get −1.
func spanParents(spans []fspan) []int {
	type key struct {
		req     string
		to, fwd int
	}
	idx := make(map[key]int, len(spans))
	for i, s := range spans {
		idx[key{s.Req, s.To, s.Fwd}] = i
	}
	parents := make([]int, len(spans))
	for i, s := range spans {
		parents[i] = -1
		if s.From >= 0 {
			if p, ok := idx[key{s.Req, s.From, s.Fwd - 1}]; ok {
				parents[i] = p
			}
		}
	}
	return parents
}

// interval is a span's extent, for self-time arithmetic.
type interval struct{ start, end int64 }

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children. Overlapping children count
// once, and a child reaching outside its parent counts only inside it.
func selfTimes(ivs []interval, parents []int) []int64 {
	children := make([][]interval, len(ivs))
	for i, p := range parents {
		if p >= 0 {
			children[p] = append(children[p], ivs[i])
		}
	}
	self := make([]int64, len(ivs))
	for i, iv := range ivs {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered := int64(0)
		cur := iv.start // covered up to here
		for _, k := range kids {
			s, e := max(k.start, cur), min(k.end, iv.end)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		self[i] = iv.end - iv.start - covered
	}
	return self
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (t *tracingTransport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}
