package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/advisor"
	"repro/internal/spec"
)

// FuzzStoreDecode fuzzes the framed-JSONL codec with arbitrary log
// images. The contract under test: decoding never panics; every failure
// is a typed *CorruptError; and a successful decode is exactly
// invertible — re-encoding the frames plus the torn tail reproduces the
// input byte-for-byte (so nothing is ever silently skipped or mangled).
func FuzzStoreDecode(f *testing.F) {
	// A valid two-record log.
	valid := appendFrame(nil, []byte(`{"kind":"advised"}`))
	valid = appendFrame(valid, []byte(`{"key":"k","val":"aGk="}`))
	f.Add(valid)
	// The same log with a torn tail (crash artifact).
	f.Add(append(bytes.Clone(valid), []byte("deadbeef {\"ki")...))
	// A terminated line with a wrong checksum.
	f.Add([]byte("00000000 {\"kind\":\"advised\"}\n"))
	// Malformed headers.
	f.Add([]byte("nothex!! {}\n"))
	f.Add([]byte("short\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, torn, err := decodeFrames(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decodeFrames error %v is not a *CorruptError", err)
			}
			return
		}
		if torn < 0 || torn > len(data) {
			t.Fatalf("torn = %d out of range [0,%d]", torn, len(data))
		}
		re := make([]byte, 0, len(data))
		for _, fr := range frames {
			re = appendFrame(re, fr.payload)
		}
		re = append(re, data[len(data)-torn:]...)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n got %q\nwant %q", re, data)
		}

		// Record-level decoding over checksummed payloads: errors must be
		// typed corruption, never a panic or a silent skip.
		for _, fr := range frames {
			if _, err := decodeSessionRecord(fr.payload, fr.off); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("decodeSessionRecord error %v is not a *CorruptError", err)
				}
			}
			if _, err := decodeKVRecord(fr.payload, fr.off); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("decodeKVRecord error %v is not a *CorruptError", err)
				}
			}
		}
		if _, err := replayRecords(frames); err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) && !errors.Is(err, ErrNoSession) && !errors.Is(err, ErrTombstoned) {
				t.Fatalf("replayRecords error %v is not typed", err)
			}
		}
	})
}

// reflectRecord is a session record as encoding/json sees it: the struct
// the log format was first written from.
type reflectRecord struct {
	Kind  string            `json:"kind"`
	Spec  *spec.SessionSpec `json:"spec,omitempty"`
	Event *advisor.Event    `json:"event,omitempty"`
}

// decodeReflect is the reflective strict decoder the canonical one
// replaced, kept here as its oracle. ok is false where it refuses the
// payload.
func decodeReflect(payload []byte) (rec reflectRecord, ok bool) {
	if err := strictUnmarshal(payload, &rec); err != nil {
		return rec, false
	}
	switch rec.Kind {
	case recCreated:
		return rec, rec.Spec != nil
	case recEvent:
		return rec, rec.Event != nil
	case recAdvised, recTombstone:
		return rec, true
	}
	return rec, false
}

// FuzzSessionRecord checks the canonical session-record codec against
// encoding/json. For a fuzzed event, the encoder writes exactly what
// json.Marshal writes (or refuses what the format cannot carry), and
// the decoder gives the event back bit for bit. For a fuzzed payload,
// every rejection is a *CorruptError, and every payload the decoder
// accepts the reflective strict decoder accepts too, with identical
// values.
func FuzzSessionRecord(f *testing.F) {
	for _, name := range []string{"kinds", "exponent", "tombstoned"} {
		data, err := os.ReadFile(filepath.Join("testdata", "sessions", name+".log"))
		if err != nil {
			f.Fatal(err)
		}
		frames, _, err := decodeFrames(data)
		if err != nil {
			f.Fatal(err)
		}
		for _, fr := range frames {
			f.Add("progress", 1.0, 0.0, 0, fr.payload)
		}
	}
	f.Add("checkpointed", 5e-7, 1e21, 0, []byte(`{"kind":"event","event":{"kind":"failure","time":1.0,"unit":0}}`))
	f.Add("failure", math.Copysign(0, -1), math.Copysign(0, -1), -3, []byte(`{"kind":"event","event":{"kind":"bogus","time":1}}`))
	f.Add("bogus", 1.5, 2.5, 1, []byte(`{"kind":"created","spec":null}`))

	f.Fuzz(func(t *testing.T, kind string, tm, work float64, unit int, payload []byte) {
		ev := advisor.Event{Kind: advisor.EventKind(kind), Time: tm, Work: work, Unit: unit}
		line, err := appendSessionRecord(nil, sessionRecord{kind: recEvent, event: ev})
		want, jerr := json.Marshal(reflectRecord{Kind: recEvent, Event: &ev})
		finite := !math.IsInf(tm, 0) && !math.IsNaN(tm) && !math.IsInf(work, 0) && !math.IsNaN(work)
		switch {
		case !slices.Contains(eventKinds[:], ev.Kind) || !finite:
			if err == nil {
				t.Fatalf("encoded %+v, which has no canonical form", ev)
			}
		case err != nil || jerr != nil:
			t.Fatalf("encode %+v: %v (json.Marshal: %v)", ev, err, jerr)
		case !bytes.Equal(line, appendFrame(nil, want)):
			t.Fatalf("encoded %q, json.Marshal wrote %q", line, want)
		default:
			rec, err := decodeSessionRecord(want, 0)
			if err != nil {
				t.Fatalf("decode %q: %v", want, err)
			}
			back := ev
			if back.Work == 0 {
				back.Work = 0 // json omits a zero work, so -0 comes back as +0
			}
			if rec.kind != recEvent || !sameEvent(rec.event, back) {
				t.Fatalf("decoded %+v from %q, want %+v", rec, want, back)
			}
		}

		rec, err := decodeSessionRecord(payload, 0)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error %v is not a *CorruptError", err)
			}
			return
		}
		oracle, ok := decodeReflect(payload)
		switch {
		case !ok:
			t.Fatalf("accepted %q, which the reflective decoder refuses", payload)
		case rec.kind != oracle.Kind:
			t.Fatalf("kind %q, oracle %q", rec.kind, oracle.Kind)
		case rec.kind == recCreated && !reflect.DeepEqual(rec.spec, oracle.Spec):
			t.Fatalf("spec %+v, oracle %+v", rec.spec, oracle.Spec)
		case rec.kind == recEvent && !sameEvent(rec.event, *oracle.Event):
			t.Fatalf("event %+v, oracle %+v", rec.event, *oracle.Event)
		}
	})
}
