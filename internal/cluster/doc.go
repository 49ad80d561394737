// Package cluster turns the single-process store into a shared service:
// a store server that exposes the full store.Store contract (session
// log, result KV, lease face, counters) over HTTP, a RemoteStore client
// that mounts in internal/service exactly where a FileStore would, and
// a round-robin forwarder so N stateless chkpt-serve replicas can sit
// behind one address.
//
// # Wire protocol
//
// Every operation is one POST to /store/v1/{op}. The request body, and
// the response body of every operation but replay, is a single
// CRC-framed compact-JSON line — the same "<crc32c hex8> <payload>\n"
// framing the durable logs use (store.EncodeFrame/DecodeFrame), so a
// message damaged in flight fails its checksum exactly like a damaged
// log record.
//
// A replay response is one such envelope frame — a domain error, or the
// number of records that follow — and then the session's log image:
// its created record and one record per step, in the log's own framing
// and canonical record encoding (store.SessionReplay.Image). From a
// FileStore that image is the log's bytes as stored, up to the last
// acknowledged record, which the backend's Replay has just read and
// checked; nothing is encoded again. The client reads the image with
// the code FileStore.Replay reads a log file with
// (store.DecodeSessionImage), so the log grammar and every record check
// hold at both ends. An image holding more or fewer records than the
// envelope announces is a *store.CorruptError, never a shorter history.
// The image is larger than the step array earlier versions sent, at
// worst 1.65 times, so a replay response may be 5/3 of the 32 MiB cap
// on every other message.
//
// Every reply of the store server carries its Content-Length. The
// client reads a reply into one buffer of that length: a length past
// the cap answers ErrResponseTooLarge before a byte of the body is
// read, and a body that ends short of its length is an outage
// (store.ErrUnavailable), retried like one. A reply of unknown length,
// which only an intermediary would produce, is read up to the cap. The
// clients NewRemote and NewForwarder build share one transport, which
// keeps up to 256 idle connections per host.
//
// chkpt-store and chkpt-serve are upgraded together. A replica and a
// store server of different versions fail every replay with a typed
// *store.CorruptError, never with a wrong session; the other operations
// are unchanged.
//
// Domain answers
// (ErrNoSession, ErrTombstoned, ErrSessionExists, ErrLeaseHeld,
// ErrLeaseStale, ...) ride inside a 200 response as a typed error kind
// and unwrap to the matching store sentinel on the client, so
// errors.Is-classification in the service is backend-agnostic.
// Transport failures — connection refused, timeouts, non-200 statuses —
// surface as store.ErrUnavailable ("the backend is down, retry later"),
// which the service maps to 503; a frame that fails its checksum
// surfaces as a *store.CorruptError ("something is damaged, do not
// retry"). The two are never conflated.
//
// The client retries only idempotent operations (replay, get, put,
// fenced put, lease acquire/renew) on ErrUnavailable, with bounded
// jittered backoff. Session-log appends are never retried: an append
// whose first attempt landed but whose response was lost would be
// duplicated by a retry, and the log grammar has no way to dedupe it.
// Lease operations are safe to retry because acquire is
// owner-idempotent (the holder re-acquiring gets the same token) and
// renew/fenced-put carry the fencing token.
//
// # Leases, fencing, and replay equivalence
//
// Replica coordination rests on the store's lease face: a sweep runner
// claims a job through AcquireLease and writes every cell through
// PutLeased, so a replica that stalls past its ttl is fenced — the
// reclaiming replica's acquire bumps the key's monotonic token, and
// every write the stalled replica still has in flight is rejected with
// ErrLeaseStale. Completed cells therefore stay a prefix written by
// exactly one fleet member at a time, which is what keeps the durable
// sweep output byte-deterministic no matter how many replicas raced
// for the work.
//
// Sessions need no lease at all. The session log is append-once
// (AppendCreated on an existing id answers ErrSessionExists) and the
// advisor obeys the replay-equivalence contract: replaying a recorded
// history rebuilds a bit-identical session. A replica that loses the
// creation race — or that is asked about a session another replica
// created — simply replays the log and arrives at the same state the
// winner holds. Fencing tokens guarantee single-writer where writes
// must not repeat; replay equivalence makes reads location-transparent
// everywhere else.
package cluster
