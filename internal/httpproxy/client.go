package httpproxy

import (
	"errors"
	"io"
	"net"
	"net/http"
	"time"
)

// The farm runs over real sockets, so its throughput ceiling is set by how
// the HTTP client side treats connections. The stock http.DefaultTransport
// caps idle connections at MaxIdleConnsPerHost=2 — under ADC's learned
// single-location routing every proxy funnels its misses into the *same*
// resolver host, so all but two of those connections are torn down after
// each response and the farm pays a fresh TCP handshake (plus TIME_WAIT
// churn) on nearly every forward. One tuned, shared Transport fixes the
// fan-in: generous idle pools sized for a fleet where any host may become
// the hot resolver, keep-alives on, and granular dial/header timeouts in
// place of the old one-size 30 s client timeout (which also killed slow
// but live streaming bodies).

// Timeout defaults of the shared transport. Dial and header timeouts are
// deliberately granular: a dead peer fails fast at dial time, while a live
// peer serving a large body is never cut off mid-stream.
const (
	dialTimeout       = 2 * time.Second
	headerTimeout     = 10 * time.Second
	idleConnTimeout   = 90 * time.Second
	keepAlivePeriod   = 30 * time.Second
	maxIdlePerHost    = 512
	maxIdleConnsTotal = 2048
)

// NewTransport returns the tuned http.Transport used by everything in this
// package (proxy upstream fetches, the farm's client side) and by
// cmd/adcload. Callers that need isolation (e.g. separate metrics per
// client) may construct their own; sharing one is the fast path.
func NewTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   dialTimeout,
			KeepAlive: keepAlivePeriod,
		}).DialContext,
		MaxIdleConns:          maxIdleConnsTotal,
		MaxIdleConnsPerHost:   maxIdlePerHost,
		IdleConnTimeout:       idleConnTimeout,
		ResponseHeaderTimeout: headerTimeout,
		// Payloads are small binary bodies; compression would only add
		// CPU on the hot path.
		DisableCompression: true,
		ForceAttemptHTTP2:  false,
	}
}

// NewClient wraps NewTransport in an http.Client. There is deliberately no
// overall client timeout: dial and header timeouts above bound every
// stalled phase individually, so a healthy long transfer is never aborted.
func NewClient() *http.Client {
	return &http.Client{Transport: NewTransport()}
}

// sharedClient is the package-default pooled client. Every proxy in a
// process and the farm's own client side reuse it, so settings cannot
// drift between the two (they used to be two hardcoded 30 s clients) and
// connections to a hot resolver are pooled process-wide.
var sharedClient = NewClient()

// maxBody caps how much of a peer's or the origin's response body is read.
// Object payloads are under 64 bytes, so 1 MiB is generous; a larger body
// comes from a faulty or hostile upstream and fails the fetch instead of
// being buffered whole.
const maxBody = 1 << 20

var errBodyTooLarge = errors.New("httpproxy: upstream body exceeds 1 MiB")

// readBody reads an upstream body of at most maxBody bytes.
func readBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxBody+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBody {
		return nil, errBodyTooLarge
	}
	return body, nil
}
