package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/advisor"
	"repro/internal/spec"
	"repro/internal/store"
)

// wirePathPrefix is where the store server mounts its operations:
// POST {prefix}{op}.
const wirePathPrefix = "/store/v1/"

// maxWireBytes bounds one wire message (either direction) other than
// a replay response. Session specs are capped at 16 MiB by the
// service; doubling that leaves room for framing.
const maxWireBytes = 32 << 20

// maxReplayBytes bounds a replay response. A replay carries the
// session's log image, which is larger than the JSON step array earlier
// versions of the wire carried: at worst 1.65 times per step, for an
// advised marker (28 bytes against 17). 5/3 of the old cap therefore
// carries every history whose old response fit under maxWireBytes.
const maxReplayBytes = maxWireBytes / 3 * 5

// Wire operations, one per store.Store + store.LeaseStore method.
const (
	opCreated      = "created"
	opEvent        = "event"
	opAdvised      = "advised"
	opTombstone    = "tombstone"
	opReplay       = "replay"
	opPut          = "put"
	opGet          = "get"
	opPutLeased    = "put-leased"
	opLeaseAcquire = "lease-acquire"
	opLeaseRenew   = "lease-renew"
	opLeaseRelease = "lease-release"
	opStats        = "stats"
)

// wireOps lists every operation in its fixed metrics order.
var wireOps = []string{
	opCreated, opEvent, opAdvised, opTombstone, opReplay,
	opPut, opGet, opPutLeased,
	opLeaseAcquire, opLeaseRenew, opLeaseRelease, opStats,
}

// retriableOps are the idempotent operations the client may retry on
// ErrUnavailable. Session-log appends and lease release are absent by
// design: a retried append whose first attempt landed would duplicate
// a log record, and a failed release is moot (the ttl reclaims it).
var retriableOps = map[string]bool{
	opReplay:       true,
	opPut:          true,
	opGet:          true,
	opPutLeased:    true,
	opLeaseAcquire: true,
	opLeaseRenew:   true,
	opStats:        true,
}

// wireRequest is the request payload of every operation; each op reads
// the fields it needs and rejects requests missing them.
type wireRequest struct {
	ID    string            `json:"id,omitempty"`    // session ops
	Spec  *spec.SessionSpec `json:"spec,omitempty"`  // created
	Event *advisor.Event    `json:"event,omitempty"` // event
	Key   string            `json:"key,omitempty"`   // result + lease ops
	Val   []byte            `json:"val,omitempty"`   // put, put-leased
	Owner string            `json:"owner,omitempty"` // lease-acquire
	TTLMS int64             `json:"ttl_ms,omitempty"`
	Lease *store.Lease      `json:"lease,omitempty"` // fenced ops
}

// wireResponse is the response envelope. Err is set instead of the
// data fields when the operation answered a domain error.
type wireResponse struct {
	Err     *wireError   `json:"err,omitempty"`
	Records int          `json:"records,omitempty"` // replay: log records after the envelope
	Val     []byte       `json:"val,omitempty"`     // get
	Found   bool         `json:"found,omitempty"`   // get
	Lease   *store.Lease `json:"lease,omitempty"`   // lease-acquire
	Stats   *store.Stats `json:"stats,omitempty"`   // stats

	// A successful replay's session travels after the envelope as its
	// log image, Records records in the log's own framing: image is what
	// the server sends, replay what the client decoded from it.
	image  []byte
	replay *store.SessionReplay
}

// Wire error kinds: every store sentinel the service classifies on,
// plus the two non-domain outcomes.
const (
	kindNoSession  = "no_session"
	kindTombstoned = "tombstoned"
	kindExists     = "exists"
	kindClosed     = "closed"
	kindLeaseHeld  = "lease_held"
	kindLeaseStale = "lease_stale"
	kindCorrupt    = "corrupt"
	kindBadRequest = "bad_request"
	kindInternal   = "internal"
)

// wireError is a domain error on the wire: a kind the client lifts
// back into the matching store sentinel, plus the server's rendered
// message for operators.
type wireError struct {
	Kind   string `json:"kind"`
	Msg    string `json:"msg,omitempty"`
	Offset int    `json:"offset,omitempty"` // corrupt only
}

// toWireError lowers a store error onto the wire. Context
// cancellations are reported as internal: the server's handler context
// died, which the client sees alongside the broken connection anyway.
func toWireError(err error) *wireError {
	var ce *store.CorruptError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &ce):
		return &wireError{Kind: kindCorrupt, Msg: ce.Reason, Offset: ce.Offset}
	case errors.Is(err, store.ErrNoSession):
		return &wireError{Kind: kindNoSession, Msg: err.Error()}
	case errors.Is(err, store.ErrTombstoned):
		return &wireError{Kind: kindTombstoned, Msg: err.Error()}
	case errors.Is(err, store.ErrSessionExists):
		return &wireError{Kind: kindExists, Msg: err.Error()}
	case errors.Is(err, store.ErrClosed):
		return &wireError{Kind: kindClosed, Msg: err.Error()}
	case errors.Is(err, store.ErrLeaseHeld):
		return &wireError{Kind: kindLeaseHeld, Msg: err.Error()}
	case errors.Is(err, store.ErrLeaseStale):
		return &wireError{Kind: kindLeaseStale, Msg: err.Error()}
	default:
		return &wireError{Kind: kindInternal, Msg: err.Error()}
	}
}

// remoteError preserves the server's rendered message while unwrapping
// to the store sentinel the service classifies on.
type remoteError struct {
	msg  string
	base error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.base }

// lift raises a wire error back into a Go error. Sentinel kinds keep
// their errors.Is identity; corrupt kinds become a *store.CorruptError
// again; everything else is opaque.
func (e *wireError) lift() error {
	var base error
	switch e.Kind {
	case kindNoSession:
		base = store.ErrNoSession
	case kindTombstoned:
		base = store.ErrTombstoned
	case kindExists:
		base = store.ErrSessionExists
	case kindClosed:
		base = store.ErrClosed
	case kindLeaseHeld:
		base = store.ErrLeaseHeld
	case kindLeaseStale:
		base = store.ErrLeaseStale
	case kindCorrupt:
		return &store.CorruptError{Offset: e.Offset, Reason: e.Msg}
	default:
		return fmt.Errorf("cluster: remote error (%s): %s", e.Kind, e.Msg)
	}
	msg := e.Msg
	if msg == "" {
		msg = base.Error()
	}
	return &remoteError{msg: msg, base: base}
}

// encodeWire frames one wire message: compact JSON inside the store's
// CRC framing.
func encodeWire(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode wire message: %w", err)
	}
	return store.EncodeFrame(payload), nil
}

// decodeWire decodes one framed wire message strictly: a checksum
// failure or a payload with unknown fields is a *store.CorruptError,
// never silently accepted.
func decodeWire(data []byte, v any) error {
	payload, err := store.DecodeFrame(data)
	if err != nil {
		return err
	}
	if err := spec.DecodeStrict(bytes.NewReader(payload), v); err != nil {
		return &store.CorruptError{Reason: fmt.Sprintf("wire payload: %v", err)}
	}
	return nil
}

// decodeResponse decodes a response body: the envelope frame and, when
// it answers a replay successfully, the session's log image after it,
// checked with the grammar and record checks a FileStore applies to its
// log file. An image holding fewer records than the envelope announces
// is a *store.CorruptError, never a shorter history.
func decodeResponse(op string, body []byte) (*wireResponse, error) {
	n := bytes.IndexByte(body, '\n') + 1
	if n == 0 {
		n = len(body) // let decodeWire report the unterminated frame
	}
	var resp wireResponse
	if err := decodeWire(body[:n], &resp); err != nil {
		return nil, err
	}
	image := body[n:]
	if op != opReplay || resp.Err != nil {
		if len(image) > 0 {
			return nil, &store.CorruptError{Offset: n, Reason: "data after the response frame"}
		}
		return &resp, nil
	}
	rep, err := store.DecodeSessionImage(image, resp.Records)
	if err != nil {
		return nil, err
	}
	resp.replay = rep
	return &resp, nil
}
