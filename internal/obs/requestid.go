package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// ctxKey namespaces this package's context values.
type ctxKey int

const (
	requestIDKey ctxKey = iota
	tracerKey
	spanKey
)

// WithRequestID returns a context carrying the request correlation id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request id ("" when none is set).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// IDSource mints request ids for requests that arrive without one.
type IDSource interface {
	NewID() string
}

// randomIDSource mints 16-hex-char random ids.
type randomIDSource struct{}

func (randomIDSource) NewID() string {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a zero id
		// beats refusing the request over a correlation label.
		return "0000000000000000"
	}
	return hex.EncodeToString(raw[:])
}

// NewRandomIDSource returns the production id source: 64 random bits,
// hex encoded.
func NewRandomIDSource() IDSource { return randomIDSource{} }

// SequenceIDSource mints deterministic "prefix-000001"-style ids for
// tests, so a request without an X-Request-ID header still gets a
// reproducible one.
type SequenceIDSource struct {
	prefix string
	n      atomic.Uint64
}

// NewSequenceIDSource returns a sequential id source with the given
// prefix.
func NewSequenceIDSource(prefix string) *SequenceIDSource {
	return &SequenceIDSource{prefix: prefix}
}

// NewID returns the next id in the sequence.
func (s *SequenceIDSource) NewID() string {
	return fmt.Sprintf("%s-%06d", s.prefix, s.n.Add(1))
}

// SanitizeRequestID bounds a client-supplied request id: printable
// ASCII only (a header smuggling control bytes must not reach logs or
// the trace buffer verbatim) and at most 64 bytes. An id that needs no
// repair is returned unchanged.
func SanitizeRequestID(id string) string {
	const maxLen = 64
	clean := true
	for i := 0; i < len(id); i++ {
		if id[i] < 0x20 || id[i] > 0x7e {
			clean = false
			break
		}
	}
	if clean && len(id) <= maxLen {
		return id
	}
	out := make([]byte, 0, min(len(id), maxLen))
	for i := 0; i < len(id) && len(out) < maxLen; i++ {
		if id[i] >= 0x20 && id[i] <= 0x7e {
			out = append(out, id[i])
		}
	}
	return string(out)
}
