// Package store is the durable persistence layer behind the serving
// tier: an append-only session event log and a content-addressed result
// store, each with an in-memory backend (MemStore — the previous
// in-process behavior, and the test double) and a stdlib-only on-disk
// backend (FileStore). The interface is deliberately small so a
// bbolt/SQLite/Redis backend can slot in later without touching the
// service layer.
//
// # Replay is recovery
//
// The advisor layer's equivalence suite (PR 5) proves that a Session
// replayed from its event stream is bit-identical to the session that
// produced it. Durability therefore does not snapshot advisor state —
// it journals the inputs:
//
//   - a "created" record carrying the declarative spec.SessionSpec the
//     session was compiled from,
//   - one "event" record per accepted advisor.Event, appended before the
//     resulting decision is released to the client,
//   - an "advised" record at the decision points where a replay must
//     consult the policy again, as the policy's advisor.ChunkState
//     declaration decides: every consult of a policy that declares
//     nothing, and of DPNextFailure and Liu, which advance a plan
//     cursor in NextChunk (their replay consults only the records after
//     the last "recovered" event, because a failure discards the plan);
//     for a policy whose NextChunk keeps no state (the periodic family,
//     DPMakespan) only a consult that follows a progress event since
//     the last commit or recovery, since its replay places any other
//     consult from the events alone,
//   - a terminal "tombstone" record written by DELETE and by TTL
//     eviction, after which the session is never resurrectable.
//
// A restarted server rehydrates a requested session lazily: Replay
// returns the spec and the recorded steps, the service recompiles the
// advisor through the same registry and engine cache, and
// Advisor.ReplaySession re-applies the steps. The recovered session's
// next decision is byte-identical to the uninterrupted one. Logs
// written before policies declared their ChunkState hold a record at
// every consult; they replay unchanged, the surplus records skipped.
//
// The result store is a flat content-addressed KV keyed by
// spec.CanonicalCellHash (experiment canonical hash + cell index): a
// sweep job persists each rendered cell as it completes, in the
// deterministic expansion order, so the completed set is always a
// prefix. Re-submitting an identical spec — or restarting a crashed
// server — re-runs only the missing suffix.
//
// # On-disk format
//
// FileStore keeps one framed-JSONL log per session under sessions/ and
// a sequence of append-only framed-JSONL segments under results/. Every
// record is one line:
//
//	<8 lowercase hex chars: CRC-32C of payload><space><compact JSON payload>\n
//
// Appends are a single write followed by fsync, so a record is durable
// before the HTTP response that depends on it. Two failure modes are
// distinguished on read:
//
//   - A torn tail — trailing bytes with no terminating newline — is the
//     signature of a crash mid-append. The record was never acknowledged,
//     so replay repairs the log by truncating the torn bytes and
//     continues.
//   - A corrupt terminated line (bad frame, CRC mismatch, a payload that
//     is not a valid record) is real corruption and surfaces as a
//     *CorruptError carrying the line's offset; nothing is silently
//     skipped.
//
// Session records have one canonical encoding: the compact JSON that
// encoding/json writes for them, which is what every session log has
// held since the format's first version. The codec writes it without
// reflection (only a created record's spec goes through encoding/json)
// and accepts only what it writes: a payload decodes only if encoding
// its record again gives back the same bytes. What the encoding cannot
// carry — an event of an unknown kind or with a non-finite time or
// work, a spec whose JSON does not decode back to itself — is refused
// at append, before it is acknowledged. The store server sends a
// replay as the session's log image (SessionReplay.Image), which the
// client reads with the code Replay uses on a file
// (DecodeSessionImage): a log record and a replayed step on the wire
// are one encoding.
//
// Because the decoder accepts only canonical records, the bytes a
// replay was decoded from are its image, byte for byte. A replay
// therefore keeps them: FileStore.Replay the log up to its last
// acknowledged record (after any torn-tail repair), DecodeSessionImage
// the image it was given. Image answers those bytes and encodes
// nothing; only a replay that was never decoded from bytes, such as
// MemStore's, is encoded with AppendSessionImage when asked. Every
// record is still decoded and checked at each end before its bytes are
// served or accepted.
//
// Segment files rotate at Options.SegmentBytes; only the last (active)
// segment may carry a torn tail — a torn or corrupt sealed segment is an
// error at Open.
//
// FileStore assumes a single process owns the directory (the service
// holds it for the server's lifetime); it does not implement file
// locking.
//
// # Locks and handles
//
// Session logs scale with the number of sessions, not the store. Each
// session has its own lock, and every write, fsync, replay read and
// torn-tail truncation of its log runs under that lock alone, so a
// session waits only for its own records. The store mutex guards the
// session map and the handle cache and is never held across file I/O;
// where both are held, the session lock is taken first. A third mutex
// guards the result index, the active segment and the lease table, is
// held across their writes and fsyncs, and is never taken together
// with the other two.
//
// A session keeps its log open: the handle AppendCreated or Replay
// opened (read-write, O_APPEND) serves its later appends and replays.
// At most 1024 handles stay open, the service's default MaxSessions; the
// least recently used one is closed past that, and its session's next
// append or replay opens the log again. The operation that evicts a
// handle closes it without waiting: a victim whose lock is held is left
// to its holder, which files the handle again as it finishes. A handle
// is also closed at the tombstone, after a failed write or fsync, and
// at Close, which waits for the operations under way and refuses every
// later one.
//
// The durability protocol does not change with the handles: every
// acknowledged record is one write followed by fsync before the call
// returns, and a create fsyncs the new file and then its directory. A
// write or fsync that fails truncates the log back to its acknowledged
// records, so the next append does not land after a fragment; if that
// truncation fails as well, the session takes no append until a replay
// has repaired its log.
// Every session-log file call goes through one small file-system
// interface (logFS), which tests substitute to block or fail a call.
package store
