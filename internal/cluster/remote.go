package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// ErrResponseTooLarge reports a store response exceeding maxWireBytes.
// It is neither corruption (the backend's data is intact — only the
// wire cannot carry it) nor an outage (retrying answers the same
// bytes), so it is never retried and never maps to 503; the session it
// names stays readable by any process mounting the backend locally.
var ErrResponseTooLarge = errors.New("cluster: store response exceeds the wire cap")

// Remote client defaults.
const (
	defaultRPCTimeout = 5 * time.Second
	defaultRetries    = 2
	defaultBackoff    = 50 * time.Millisecond
	statsRPCTimeout   = 2 * time.Second
)

// idleConnsPerHost is how many idle connections the shared transport
// keeps per host. http.DefaultTransport keeps 2, so under more than two
// concurrent callers each further call dials a connection and drops it
// afterwards; 256 covers a replica's concurrent appends.
const idleConnsPerHost = 256

// transport is the one transport of the clients NewRemote and
// NewForwarder build: http.DefaultTransport's settings with a larger
// idle pool per host and no bound across hosts. Sharing it keeps idle
// connections reusable across the RemoteStores of a process.
var transport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = idleConnsPerHost
	t.MaxIdleConns = 0
	return t
}()

// RemoteConfig configures a RemoteStore.
type RemoteConfig struct {
	// BaseURL is the store server's address, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// Client is the HTTP client to use. Nil selects one on the package's
	// shared transport.
	Client *http.Client
	// Timeout bounds each RPC attempt (0 = default 5s).
	Timeout time.Duration
	// Retries is how many extra attempts idempotent operations get on
	// ErrUnavailable (0 = default 2, negative = none).
	Retries int
	// Backoff is the base retry delay, doubled per attempt with up to
	// 100% jitter on top (0 = default 50ms).
	Backoff time.Duration
}

// RemoteStore implements store.Store + store.LeaseStore against a
// store server, so the service mounts a shared backend exactly where
// it would mount a FileStore. Transport failures surface as
// store.ErrUnavailable (the service answers 503 — retry later);
// checksum failures as *store.CorruptError (do not retry); domain
// answers unwrap to the same sentinels a local backend returns.
//
// Only idempotent operations are retried: replay, get, put, fenced
// put, lease acquire and renew — the lease ones are retry-safe because
// acquire is owner-idempotent and the rest carry the fencing token.
// Session-log appends are never retried (a landed-but-unacknowledged
// append would be duplicated); their callers decide, with session
// state in hand, how to recover.
type RemoteStore struct {
	base    *url.URL
	client  *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	closed  atomic.Bool

	statsMu sync.Mutex
	stats   store.Stats // last snapshot a stats RPC answered
}

// NewRemote builds a RemoteStore client.
func NewRemote(cfg RemoteConfig) (*RemoteStore, error) {
	base, err := url.Parse(strings.TrimSuffix(cfg.BaseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("cluster: parse store url %q: %w", cfg.BaseURL, err)
	}
	if (base.Scheme != "http" && base.Scheme != "https") || base.Host == "" {
		return nil, fmt.Errorf("cluster: store url %q must be http(s)://host[:port]", cfg.BaseURL)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: transport}
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = defaultRPCTimeout
	}
	retries := cfg.Retries
	switch {
	case retries == 0:
		retries = defaultRetries
	case retries < 0:
		retries = 0
	}
	backoff := cfg.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	return &RemoteStore{
		base:    base,
		client:  client,
		timeout: timeout,
		retries: retries,
		backoff: backoff,
	}, nil
}

// call runs one operation with exactly one attempt, wrapped in a
// "store.rpc" span carrying the op and its outcome. result="ok" means
// a framed response was decoded (domain errors included — the RPC
// itself worked); result="error" means transport failure or a damaged
// frame.
func (r *RemoteStore) call(ctx context.Context, op string, req *wireRequest) (*wireResponse, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("cluster: %s: %w", op, store.ErrClosed)
	}
	ctx, span := obs.StartSpan(ctx, "store.rpc")
	span.SetAttr("op", op)
	resp, err := r.roundTrip(ctx, op, req)
	if err != nil && (errors.Is(err, store.ErrUnavailable) || isCorrupt(err)) {
		span.SetAttr("result", "error")
	} else {
		span.SetAttr("result", "ok")
	}
	span.End()
	return resp, err
}

func isCorrupt(err error) bool {
	var ce *store.CorruptError
	return errors.As(err, &ce)
}

// roundTrip is one HTTP exchange: frame the request, post it with the
// per-attempt timeout, classify the outcome.
func (r *RemoteStore) roundTrip(ctx context.Context, op string, req *wireRequest) (*wireResponse, error) {
	frame, err := encodeWire(req)
	if err != nil {
		return nil, err
	}
	attemptCtx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost,
		r.base.String()+wirePathPrefix+op, bytes.NewReader(frame))
	if err != nil {
		return nil, fmt.Errorf("cluster: build %s request: %w", op, err)
	}
	httpReq.Header.Set("Content-Type", "application/x-ndjson")
	if id := obs.RequestID(ctx); id != "" {
		httpReq.Header.Set("X-Request-ID", id)
	}
	httpResp, err := r.client.Do(httpReq)
	if err != nil {
		// The caller's own cancellation is theirs, not an outage.
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("cluster: %s: %w", op, cerr)
		}
		return nil, fmt.Errorf("cluster: %s %s: %w: %w", op, r.base.Host, err, store.ErrUnavailable)
	}
	defer httpResp.Body.Close()
	limit := maxWireBytes
	if op == opReplay {
		limit = maxReplayBytes
	}
	body, over, err := readBody(httpResp, limit)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("cluster: %s: %w", op, cerr)
		}
		return nil, fmt.Errorf("cluster: %s %s: read response: %w: %w", op, r.base.Host, err, store.ErrUnavailable)
	}
	switch {
	case httpResp.StatusCode == http.StatusOK:
		// Distinguish an over-cap response from a damaged one before
		// decoding: readBody keeps at most limit+1 bytes, and a truncated
		// frame would misdecode as corruption — permanent, never retried —
		// when the backend's copy is intact.
		if over {
			return nil, fmt.Errorf("cluster: %s %s: %w (cap %d bytes)",
				op, r.base.Host, ErrResponseTooLarge, limit)
		}
		resp, err := decodeResponse(op, body)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s response: %w", op, err)
		}
		if resp.Err != nil {
			return nil, resp.Err.lift()
		}
		return resp, nil
	case httpResp.StatusCode == http.StatusBadRequest:
		// The server refused the request without executing it: a protocol
		// mismatch, loud and permanent — never retried, never 503.
		return nil, fmt.Errorf("cluster: %s: remote rejected request: %s",
			op, strings.TrimSpace(string(body)))
	default:
		return nil, fmt.Errorf("cluster: %s %s: status %d: %w",
			op, r.base.Host, httpResp.StatusCode, store.ErrUnavailable)
	}
}

// readBody reads a response body whole. A body of declared length is
// read into one buffer of that length, and one cut short of it answers
// io.ErrUnexpectedEOF; a declared length past limit reports over
// without reading a byte. A body of unknown length is read up to limit+1
// bytes, over reporting that it went past limit.
func readBody(resp *http.Response, limit int) (body []byte, over bool, err error) {
	n := resp.ContentLength
	switch {
	case n > int64(limit):
		return nil, true, nil
	case n >= 0:
		body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, body)
		return body, false, err
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
	return body, len(body) > limit, err
}

// callIdempotent retries an idempotent operation on ErrUnavailable
// with doubled, jittered backoff. Non-idempotent ops must go through
// call directly; the guard makes a miswired call site fail its tests
// rather than silently duplicate appends.
func (r *RemoteStore) callIdempotent(ctx context.Context, op string, req *wireRequest) (*wireResponse, error) {
	if !retriableOps[op] {
		return nil, fmt.Errorf("cluster: op %s is not idempotent and must not be retried", op)
	}
	resp, err := r.call(ctx, op, req)
	for attempt := 1; attempt <= r.retries && errors.Is(err, store.ErrUnavailable); attempt++ {
		delay := r.backoff << (attempt - 1)
		delay += rand.N(delay) // spread replica retries apart
		if serr := sleepCtx(ctx, delay); serr != nil {
			return nil, serr
		}
		resp, err = r.call(ctx, op, req)
	}
	return resp, err
}

// sleepCtx waits for d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// AppendCreated implements store.SessionLog. Never retried.
func (r *RemoteStore) AppendCreated(ctx context.Context, id string, ss *spec.SessionSpec) error {
	_, err := r.call(ctx, opCreated, &wireRequest{ID: id, Spec: ss})
	return err
}

// AppendEvent implements store.SessionLog. Never retried.
func (r *RemoteStore) AppendEvent(ctx context.Context, id string, ev advisor.Event) error {
	_, err := r.call(ctx, opEvent, &wireRequest{ID: id, Event: &ev})
	return err
}

// AppendAdvised implements store.SessionLog. Never retried.
func (r *RemoteStore) AppendAdvised(ctx context.Context, id string) error {
	_, err := r.call(ctx, opAdvised, &wireRequest{ID: id})
	return err
}

// Tombstone implements store.SessionLog. Never retried.
func (r *RemoteStore) Tombstone(ctx context.Context, id string) error {
	_, err := r.call(ctx, opTombstone, &wireRequest{ID: id})
	return err
}

// Replay implements store.SessionLog.
func (r *RemoteStore) Replay(ctx context.Context, id string) (*store.SessionReplay, error) {
	resp, err := r.callIdempotent(ctx, opReplay, &wireRequest{ID: id})
	if err != nil {
		return nil, err
	}
	return resp.replay, nil
}

// Put implements store.ResultStore.
func (r *RemoteStore) Put(ctx context.Context, key string, val []byte) error {
	_, err := r.callIdempotent(ctx, opPut, &wireRequest{Key: key, Val: val})
	return err
}

// Get implements store.ResultStore.
func (r *RemoteStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	resp, err := r.callIdempotent(ctx, opGet, &wireRequest{Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Val, resp.Found, nil
}

// AcquireLease implements store.LeaseStore. Retried: acquire is
// owner-idempotent, so a delivered-but-unacknowledged attempt answers
// the same token on retry.
func (r *RemoteStore) AcquireLease(ctx context.Context, key, owner string, ttl time.Duration) (store.Lease, error) {
	resp, err := r.callIdempotent(ctx, opLeaseAcquire,
		&wireRequest{Key: key, Owner: owner, TTLMS: ttl.Milliseconds()})
	if err != nil {
		return store.Lease{}, err
	}
	if resp.Lease == nil {
		return store.Lease{}, &store.CorruptError{Reason: "lease-acquire response without a lease"}
	}
	return *resp.Lease, nil
}

// RenewLease implements store.LeaseStore. Retried: carries the token.
func (r *RemoteStore) RenewLease(ctx context.Context, l store.Lease, ttl time.Duration) error {
	_, err := r.callIdempotent(ctx, opLeaseRenew, &wireRequest{Lease: &l, TTLMS: ttl.Milliseconds()})
	return err
}

// ReleaseLease implements store.LeaseStore. Single attempt: a failed
// release is moot — the ttl reclaims the key anyway.
func (r *RemoteStore) ReleaseLease(ctx context.Context, l store.Lease) error {
	_, err := r.call(ctx, opLeaseRelease, &wireRequest{Lease: &l})
	return err
}

// PutLeased implements store.LeaseStore. Retried: the fencing token
// makes a duplicate write of the same bytes under the same token
// harmless, and a reclaimed token answers ErrLeaseStale.
func (r *RemoteStore) PutLeased(ctx context.Context, l store.Lease, key string, val []byte) error {
	_, err := r.callIdempotent(ctx, opPutLeased, &wireRequest{Lease: &l, Key: key, Val: val})
	return err
}

// Stats implements store.Store: a bounded synchronous snapshot RPC,
// falling back to the last snapshot the server answered when the
// backend is unreachable — /metrics keeps rendering during an outage
// instead of erroring.
func (r *RemoteStore) Stats() store.Stats {
	//chkpt:allow ctxflow -- Stats has no context parameter (store.Store contract); the fetch is bounded and falls back to the cached snapshot
	ctx, cancel := context.WithTimeout(context.Background(), statsRPCTimeout)
	defer cancel()
	resp, err := r.callIdempotent(ctx, opStats, &wireRequest{})
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if err == nil && resp.Stats != nil {
		r.stats = *resp.Stats
	}
	return r.stats
}

// Close implements store.Store. It releases nothing remote — the store
// server owns the backend — but fails further local calls fast.
func (r *RemoteStore) Close() error {
	r.closed.Store(true)
	return nil
}
