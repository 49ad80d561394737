package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
)

// maxForwardBody bounds a buffered request body. Matches the service's
// own 16 MiB spec cap with headroom.
const maxForwardBody = 32 << 20

// Forwarder is a minimal round-robin HTTP forwarder: each request goes
// to the next replica in rotation, failing over to the others when a
// replica cannot be reached at all. It buffers the request body (so a
// failed attempt can be replayed against the next replica) but streams
// the response (so NDJSON sweeps flush row by row). A replica that
// answers — any status — owns the request: an HTTP error is a backend
// answer, not a routing failure.
//
// Failover is delivery-aware: a non-idempotent request (an event
// append, a session create) is replayed elsewhere only when the error
// proves it never reached the replica — a dial failure, before a
// single request byte was written. An error after that point (a reset
// mid-exchange, an EOF instead of a response) may mean the replica
// executed the request and died before answering; replaying it would
// append the same log record twice, which the append-once log cannot
// dedupe. Those answer 502 and leave the retry decision to the client,
// which has the session state to make it safely.
type Forwarder struct {
	backends []*url.URL
	client   *http.Client
	log      *slog.Logger
	next     atomic.Uint64
}

// NewForwarder builds a forwarder over the given backend base URLs.
func NewForwarder(backends []string, logger *slog.Logger) (*Forwarder, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: forwarder needs at least one backend")
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	parsed := make([]*url.URL, len(backends))
	for i, b := range backends {
		u, err := url.Parse(strings.TrimSuffix(b, "/"))
		if err != nil {
			return nil, fmt.Errorf("cluster: parse backend %q: %w", b, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %q must be http(s)://host[:port]", b)
		}
		parsed[i] = u
	}
	// No Timeout on the client: sweep streams run as long as they run.
	// The transport still fails fast on refused connections, which is
	// the failover signal.
	return &Forwarder{backends: parsed, client: &http.Client{Transport: transport}, log: logger}, nil
}

// hopHeaders are the hop-by-hop headers a forwarder must not copy.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Connection",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// ServeHTTP forwards one request.
func (f *Forwarder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxForwardBody))
		if err != nil {
			http.Error(w, fmt.Sprintf("read request: %v", err), http.StatusBadRequest)
			return
		}
		body = b
	}
	start := f.next.Add(1) - 1
	n := uint64(len(f.backends))
	for i := uint64(0); i < n; i++ {
		backend := f.backends[(start+i)%n]
		resp, err := f.try(r, backend, body)
		if err == nil {
			f.relay(w, resp)
			return
		}
		if idempotentMethod(r.Method) || undelivered(err) {
			f.log.Warn("backend unreachable", "backend", backend.Host, "err", err)
			continue
		}
		// The request may have been delivered and executed before the
		// connection died; replaying it could duplicate a log append.
		f.log.Warn("backend failed mid-request", "backend", backend.Host, "err", err)
		http.Error(w, fmt.Sprintf("backend %s failed after the request may have been delivered; not replayed", backend.Host),
			http.StatusBadGateway)
		return
	}
	http.Error(w, "no backend reachable", http.StatusBadGateway)
}

// idempotentMethod reports whether a request may be replayed against
// another replica regardless of whether a previous attempt was
// delivered. Only the read methods qualify: the service's PUT-less API
// makes every body-carrying method a state change.
func idempotentMethod(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	return false
}

// undelivered reports whether err proves the request never reached the
// backend: a dial-phase failure (connection refused, no route, DNS)
// happens before any request byte is written, so replaying elsewhere
// cannot duplicate work. Anything later is indistinguishable from
// "executed, then died before answering".
func undelivered(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// try sends the buffered request to one backend.
func (f *Forwarder) try(r *http.Request, backend *url.URL, body []byte) (*http.Response, error) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		backend.String()+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	return f.client.Do(out)
}

// relayBuffer is the largest buffer relay reads a response through: the
// whole of a smaller reply of known length, a chunk of a larger one or
// of a stream.
const relayBuffer = 32 << 10

// relay copies one response through, flushing after every chunk so
// streamed NDJSON rows reach the client as they are produced.
func (f *Forwarder) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	header := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			header.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		header.Del(h)
	}
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	size := int64(relayBuffer)
	if n := resp.ContentLength; n >= 0 && n < size {
		size = max(n, 1) // a Read into an empty buffer need not report EOF
	}
	buf := make([]byte, size)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
