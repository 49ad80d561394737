package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"

	"repro/internal/advisor"
	"repro/internal/spec"
)

// Session-log record kinds.
const (
	recCreated   = "created"
	recEvent     = "event"
	recAdvised   = "advised"
	recTombstone = "tombstone"
)

// sessionRecord is one session-log record: the creating spec, one
// accepted event, a decision-point marker or the terminal tombstone.
type sessionRecord struct {
	kind  string
	spec  *spec.SessionSpec // kind == recCreated
	event advisor.Event     // kind == recEvent
}

// kvRecord is the JSON payload of one result-segment frame. Val is
// base64-coded by encoding/json, which keeps arbitrary value bytes —
// newlines included — safe inside the one-line frame.
type kvRecord struct {
	Key string `json:"key"`
	Val []byte `json:"val"`
}

// encodeKVRecord marshals a result record into its framed line.
func encodeKVRecord(key string, val []byte) ([]byte, error) {
	payload, err := json.Marshal(kvRecord{Key: key, Val: val})
	if err != nil {
		return nil, fmt.Errorf("store: encode result record: %w", err)
	}
	return appendFrame(nil, payload), nil
}

// decodeKVRecord strictly unmarshals one result-record payload.
func decodeKVRecord(payload []byte, off int) (kvRecord, error) {
	var rec kvRecord
	if err := strictUnmarshal(payload, &rec); err != nil {
		return rec, &CorruptError{Offset: off, Reason: fmt.Sprintf("result record: %v", err)}
	}
	if rec.Key == "" {
		return rec, &CorruptError{Offset: off, Reason: "result record without a key"}
	}
	return rec, nil
}

// leaseRecord is the JSON payload of one leases.log frame: a key's
// full lease state after a transition. Replay folds the journal with
// last-record-wins, so the file is a state log, not a delta log, and
// token monotonicity survives a restart.
type leaseRecord struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Token uint64 `json:"token"`
	// ExpUnixMS is the lease expiry on the store's clock in Unix
	// milliseconds; 0 means the lease was released.
	ExpUnixMS int64 `json:"exp_ms"`
}

// encodeLeaseRecord marshals a lease record into its framed line.
func encodeLeaseRecord(rec leaseRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode lease record: %w", err)
	}
	return appendFrame(nil, payload), nil
}

// decodeLeaseRecord strictly unmarshals one lease-record payload.
func decodeLeaseRecord(payload []byte, off int) (leaseRecord, error) {
	var rec leaseRecord
	if err := strictUnmarshal(payload, &rec); err != nil {
		return rec, &CorruptError{Offset: off, Reason: fmt.Sprintf("lease record: %v", err)}
	}
	if rec.Key == "" || rec.Token == 0 {
		return rec, &CorruptError{Offset: off, Reason: "lease record without a key or token"}
	}
	return rec, nil
}

// CorruptError reports a damaged log: a terminated line whose frame,
// checksum or payload does not decode. It is never produced by a torn
// tail (see doc.go), which is repaired, not reported.
type CorruptError struct {
	// Offset is the byte offset of the bad line within the log.
	Offset int
	// Reason describes the failed check.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms we care about.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the per-record framing cost: 8 hex CRC chars, one
// space, one newline.
const frameOverhead = 10

// frameHeader is the placeholder a frame opens with; sealFrame
// overwrites its eight zeros with the payload's checksum.
const frameHeader = "00000000 "

// appendFrame appends payload's frame to dst:
// "<crc32c hex8> <payload>\n". The payload must not contain a newline
// (compact JSON never does).
func appendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, frameHeader...)
	dst = append(dst, payload...)
	return sealFrame(dst, start)
}

// sealFrame completes the frame opened at dst[start:] with frameHeader
// and followed by its payload: it writes the payload's checksum into
// the header and terminates the line.
func sealFrame(dst []byte, start int) []byte {
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(dst[start+len(frameHeader):], crcTable))
	hex.Encode(dst[start:start+8], crc[:])
	return append(dst, '\n')
}

// frame is one decoded record: the payload bytes and the offset of its
// line within the log, which every *CorruptError about it reports.
type frame struct {
	payload []byte
	off     int
}

// decodeFrames decodes a log image into its frames. torn is the length
// of an unterminated trailing fragment — the crash artifact the caller
// truncates away — and is 0 for a cleanly terminated log. Any defect in
// a terminated line is a *CorruptError; nothing is skipped.
func decodeFrames(data []byte) (frames []frame, torn int, err error) {
	frames = make([]frame, 0, bytes.Count(data, []byte{'\n'}))
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return frames, len(data) - off, nil
		}
		line := data[off : off+nl]
		if len(line) < frameOverhead-1 || line[8] != ' ' {
			return nil, 0, &CorruptError{Offset: off, Reason: "malformed frame header"}
		}
		// Canonical lowercase hex only: decoding is then the exact inverse
		// of appendFrame, which the fuzz target checks by re-encoding.
		for _, c := range line[:8] {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return nil, 0, &CorruptError{Offset: off, Reason: "checksum is not lowercase hex"}
			}
		}
		var want [4]byte
		if _, err := hex.Decode(want[:], line[:8]); err != nil {
			return nil, 0, &CorruptError{Offset: off, Reason: "checksum is not hex"}
		}
		payload := line[9:]
		if binary.BigEndian.Uint32(want[:]) != crc32.Checksum(payload, crcTable) {
			return nil, 0, &CorruptError{Offset: off, Reason: "checksum mismatch"}
		}
		frames = append(frames, frame{payload: payload, off: off})
		off += nl + 1
	}
	return frames, 0, nil
}

// The canonical session-record payloads: the compact JSON that
// encoding/json writes for a {"kind", "spec,omitempty",
// "event,omitempty"} record holding advisor.Event under its own tags —
// the bytes every session log has held since the format's first
// version. The two fixed records are whole constants; the other two
// open with a fixed prefix.
const (
	advisedPayload   = `{"kind":"advised"}`
	tombstonePayload = `{"kind":"tombstone"}`
	createdPrefix    = `{"kind":"created","spec":`
	eventPrefix      = `{"kind":"event","event":{"kind":"`
)

// eventKinds are the kinds an event record can carry: advisor's four.
var eventKinds = [...]advisor.EventKind{
	advisor.EventProgress, advisor.EventCheckpointed, advisor.EventFailure, advisor.EventRecovered,
}

// appendSessionRecord appends rec's framed line to dst. An event of an
// unknown kind or with a non-finite time or work, and a created record
// without a spec, have no canonical form and answer an error.
func appendSessionRecord(dst []byte, rec sessionRecord) ([]byte, error) {
	start := len(dst)
	dst, err := appendSessionPayload(append(dst, frameHeader...), rec)
	if err != nil {
		return dst[:start], err
	}
	return sealFrame(dst, start), nil
}

// appendSessionPayload appends rec's canonical payload to dst. Only a
// created record goes through encoding/json, for its spec.
func appendSessionPayload(dst []byte, rec sessionRecord) ([]byte, error) {
	switch rec.kind {
	case recAdvised:
		return append(dst, advisedPayload...), nil
	case recTombstone:
		return append(dst, tombstonePayload...), nil
	case recCreated:
		if rec.spec == nil {
			return dst, errors.New("store: created record without a spec")
		}
		js, err := json.Marshal(rec.spec)
		if err != nil {
			return dst, fmt.Errorf("store: encode session spec: %w", err)
		}
		dst = append(dst, createdPrefix...)
		dst = append(dst, js...)
		return append(dst, '}'), nil
	case recEvent:
		ev := &rec.event
		if !slices.Contains(eventKinds[:], ev.Kind) {
			return dst, fmt.Errorf("store: event kind %q is not an advisor event kind", ev.Kind)
		}
		if math.IsInf(ev.Time, 0) || math.IsNaN(ev.Time) || math.IsInf(ev.Work, 0) || math.IsNaN(ev.Work) {
			return dst, fmt.Errorf("store: %s event with a non-finite time or work", ev.Kind)
		}
		// The fields in declaration order; work and unit are omitempty.
		dst = append(dst, eventPrefix...)
		dst = append(dst, ev.Kind...)
		dst = append(dst, `","time":`...)
		dst = appendJSONFloat(dst, ev.Time)
		if ev.Work != 0 {
			dst = append(dst, `,"work":`...)
			dst = appendJSONFloat(dst, ev.Work)
		}
		if ev.Unit != 0 {
			dst = append(dst, `,"unit":`...)
			dst = strconv.AppendInt(dst, int64(ev.Unit), 10)
		}
		return append(dst, "}}"...), nil
	}
	return dst, fmt.Errorf("store: unknown session record kind %q", rec.kind)
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest digits that round-trip, in exponent form below 1e-6 and
// from 1e21 on, with a one-digit negative exponent unpadded ("5e-7").
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// decodeSessionRecord decodes one session-record payload. It accepts
// exactly the payloads appendSessionPayload writes: the fields are read
// without reflection (floats through strconv.ParseFloat, as
// encoding/json parses them; a created record's spec through the spec
// layer's strict decoder), and the record is accepted only if encoding
// it again gives the payload back byte for byte. Anything else is a
// *CorruptError at the line's offset.
func decodeSessionRecord(payload []byte, off int) (sessionRecord, error) {
	rec, err := parseSessionPayload(payload)
	if err == nil {
		var buf [192]byte
		var re []byte
		if re, err = appendSessionPayload(buf[:0], rec); err == nil && !bytes.Equal(re, payload) {
			err = errors.New("not in canonical form")
		}
	}
	if err != nil {
		return sessionRecord{}, &CorruptError{Offset: off, Reason: fmt.Sprintf("session record: %v", err)}
	}
	return rec, nil
}

// parseSessionPayload reads a record's fields from its payload. It
// checks only what it needs to find them; decodeSessionRecord judges
// the form by re-encoding.
func parseSessionPayload(p []byte) (sessionRecord, error) {
	switch {
	case string(p) == advisedPayload:
		return sessionRecord{kind: recAdvised}, nil
	case string(p) == tombstonePayload:
		return sessionRecord{kind: recTombstone}, nil
	case bytes.HasPrefix(p, []byte(eventPrefix)):
		ev, err := parseEvent(p[len(eventPrefix):])
		return sessionRecord{kind: recEvent, event: ev}, err
	case bytes.HasPrefix(p, []byte(createdPrefix)) && p[len(p)-1] == '}':
		ss := new(spec.SessionSpec)
		err := strictUnmarshal(p[len(createdPrefix):len(p)-1], ss)
		return sessionRecord{kind: recCreated, spec: ss}, err
	}
	return sessionRecord{}, errors.New("unknown record kind")
}

var errMalformedEvent = errors.New("malformed event")

// parseEvent reads an event record's fields from the payload that
// follows eventPrefix: `<kind>","time":T[,"work":W][,"unit":U]}}`.
func parseEvent(p []byte) (advisor.Event, error) {
	var ev advisor.Event
	q := bytes.IndexByte(p, '"')
	if q < 0 {
		return ev, errMalformedEvent
	}
	for _, k := range eventKinds {
		if string(p[:q]) == string(k) {
			ev.Kind = k
		}
	}
	if ev.Kind == "" {
		return ev, fmt.Errorf("unknown event kind %q", p[:q])
	}
	p, ok := bytes.CutPrefix(p[q:], []byte(`","time":`))
	if !ok {
		return ev, errMalformedEvent
	}
	var err error
	num, p := cutNumber(p)
	if ev.Time, err = strconv.ParseFloat(string(num), 64); err != nil {
		return ev, err
	}
	if rest, ok := bytes.CutPrefix(p, []byte(`,"work":`)); ok {
		num, p = cutNumber(rest)
		if ev.Work, err = strconv.ParseFloat(string(num), 64); err != nil {
			return ev, err
		}
	}
	if rest, ok := bytes.CutPrefix(p, []byte(`,"unit":`)); ok {
		num, p = cutNumber(rest)
		if ev.Unit, err = strconv.Atoi(string(num)); err != nil {
			return ev, err
		}
	}
	if string(p) != "}}" {
		return ev, errMalformedEvent
	}
	return ev, nil
}

// cutNumber splits p before the comma or brace that ends a number.
func cutNumber(p []byte) (num, rest []byte) {
	i := 0
	for i < len(p) && p[i] != ',' && p[i] != '}' {
		i++
	}
	return p[:i], p[i:]
}

// replayRecords folds a session log's frames into a SessionReplay,
// enforcing the log grammar: exactly one leading created record, then
// events and advised markers, with a tombstone terminal.
func replayRecords(frames []frame) (*SessionReplay, error) {
	if len(frames) == 0 {
		return nil, ErrNoSession
	}
	rep := &SessionReplay{Steps: make([]advisor.ReplayStep, 0, len(frames)-1)}
	for i, fr := range frames {
		rec, err := decodeSessionRecord(fr.payload, fr.off)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0 && rec.kind != recCreated:
			return nil, &CorruptError{Offset: fr.off, Reason: "log does not begin with a created record"}
		case i > 0 && rec.kind == recCreated:
			return nil, &CorruptError{Offset: fr.off, Reason: "second created record"}
		}
		switch rec.kind {
		case recCreated:
			rep.Spec = rec.spec
		case recEvent:
			rep.Steps = append(rep.Steps, advisor.ReplayStep{Event: rec.event})
		case recAdvised:
			rep.Steps = append(rep.Steps, advisor.ReplayStep{Advised: true})
		case recTombstone:
			return nil, ErrTombstoned
		}
	}
	return rep, nil
}

// AppendSessionImage appends to dst the log image that records rep: its
// created record, then one record per step, each framed as in a
// FileStore session log. DecodeSessionImage reads it back as an image
// of 1+len(rep.Steps) records. A step the log cannot carry (see
// FileStore.AppendEvent) answers an error.
func AppendSessionImage(dst []byte, rep *SessionReplay) ([]byte, error) {
	dst, err := appendSessionRecord(dst, sessionRecord{kind: recCreated, spec: rep.Spec})
	for i := 0; err == nil && i < len(rep.Steps); i++ {
		rec := sessionRecord{kind: recAdvised}
		if st := &rep.Steps[i]; !st.Advised {
			rec = sessionRecord{kind: recEvent, event: st.Event}
		}
		dst, err = appendSessionRecord(dst, rec)
	}
	return dst, err
}

// DecodeSessionImage decodes a session log image that must hold exactly
// records records, every one terminated, with the grammar and record
// checks FileStore.Replay applies to a log file. A torn image, or one
// with more or fewer records, is a *CorruptError (offsets are relative
// to image), so a truncated image is never taken for a shorter history.
// The replay keeps image as its Image, so the caller must not modify it.
func DecodeSessionImage(image []byte, records int) (*SessionReplay, error) {
	frames, torn, err := decodeFrames(image)
	switch {
	case err != nil:
		return nil, err
	case torn > 0:
		return nil, &CorruptError{Offset: len(image) - torn, Reason: "unterminated record"}
	case len(frames) != records || records < 1:
		return nil, &CorruptError{Offset: len(image),
			Reason: fmt.Sprintf("image holds %d records, want %d (at least 1)", len(frames), records)}
	}
	rep, err := replayRecords(frames)
	if err != nil {
		return nil, err
	}
	rep.image = image
	return rep, nil
}

// EncodeFrame frames one payload with the store's CRC discipline:
// "<crc32c hex8> <payload>\n". The payload must be newline-free
// (compact JSON always is). The cluster wire protocol reuses this
// framing so a message damaged in flight fails its checksum exactly
// like a damaged log record.
func EncodeFrame(payload []byte) []byte { return appendFrame(nil, payload) }

// DecodeFrame decodes exactly one cleanly terminated frame, the
// inverse of EncodeFrame. A truncated, trailing-garbage or
// checksum-failing image answers a *CorruptError.
func DecodeFrame(data []byte) ([]byte, error) {
	frames, torn, err := decodeFrames(data)
	if err != nil {
		return nil, err
	}
	if torn > 0 {
		return nil, &CorruptError{Offset: len(data) - torn, Reason: "unterminated frame"}
	}
	if len(frames) != 1 {
		return nil, &CorruptError{Offset: 0, Reason: fmt.Sprintf("want exactly 1 frame, have %d", len(frames))}
	}
	return frames[0].payload, nil
}

// strictUnmarshal is the spec layer's strict decode over a byte slice:
// unknown fields and trailing data are errors, so a log written by a
// newer record schema fails loudly instead of silently dropping fields.
func strictUnmarshal(data []byte, v any) error {
	return spec.DecodeStrict(bytes.NewReader(data), v)
}
