package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/advisor"
	"repro/internal/spec"
)

// sameStep compares two replay steps bit for bit: a float that replays
// as an equal but differently signed zero is a different history.
func sameStep(a, b advisor.ReplayStep) bool {
	return a.Advised == b.Advised && sameEvent(a.Event, b.Event)
}

func sameEvent(a, b advisor.Event) bool {
	return a.Kind == b.Kind && a.Unit == b.Unit &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		math.Float64bits(a.Work) == math.Float64bits(b.Work)
}

// The session logs under testdata/sessions were written by the FileStore
// of the previous format version, whose records were json.Marshal'd. The
// canonical codec must replay them to the same values and re-encode
// them to the same bytes.
var (
	fixtureYoung = &spec.SessionSpec{
		Name: "fixture-young",
		Scenario: spec.ScenarioSpec{
			Platform: spec.PlatformRef{Preset: "oneproc", MTBF: 86400},
			P:        1,
			Dist:     spec.DistSpec{Family: "exponential"},
		},
		Policy: spec.PolicySpec{Kind: "young"},
	}
	fixtureDP = &spec.SessionSpec{
		Name: "<dp&nf> \u2028 \"quoted\" \u00e9",
		Scenario: spec.ScenarioSpec{
			Platform: spec.PlatformRef{Preset: "petascale"},
			P:        4096,
			Dist:     spec.DistSpec{Family: "weibull", Shape: 0.7},
			Horizon:  1.5e9,
			Traces:   3,
			Seed:     math.MaxUint64,
		},
		Policy: spec.PolicySpec{Kind: "dpnextfailure", Quanta: 60, CoarseQuanta: 20},
	}
)

func fxAdvised() advisor.ReplayStep { return advisor.ReplayStep{Advised: true} }

func fxEvent(k advisor.EventKind, tm, work float64, unit int) advisor.ReplayStep {
	return advisor.ReplayStep{Event: advisor.Event{Kind: k, Time: tm, Work: work, Unit: unit}}
}

func TestSessionLogFixtures(t *testing.T) {
	fixtures := []struct {
		name  string
		want  *SessionReplay // nil: the log is tombstoned
		lines int
	}{
		{"kinds", &SessionReplay{Spec: fixtureYoung, Steps: []advisor.ReplayStep{
			fxAdvised(),
			fxEvent(advisor.EventProgress, 10, 5, 0),
			fxEvent(advisor.EventCheckpointed, 50, 25, 0),
			fxAdvised(),
			fxEvent(advisor.EventFailure, 100, 0, 3),
			fxEvent(advisor.EventRecovered, 220, 0, 0),
			fxAdvised(),
			fxEvent(advisor.EventProgress, 0, 0, 0),
			fxEvent(advisor.EventFailure, 300.25, 0, 0),
			fxEvent(advisor.EventRecovered, 360.5, 0, 0),
			fxAdvised(),
			fxEvent(advisor.EventCheckpointed, 1234.5678901234567, 0.1, 0),
			fxAdvised(),
		}}, 14},
		{"exponent", &SessionReplay{Spec: fixtureDP, Steps: []advisor.ReplayStep{
			fxAdvised(),
			fxEvent(advisor.EventProgress, 5e-7, 1e-7, 0),
			fxEvent(advisor.EventProgress, 1e-6, math.Nextafter(1e-6, 0), 0),
			fxEvent(advisor.EventProgress, 1.5e-10, 0, 0),
			fxEvent(advisor.EventCheckpointed, 1e21, 9.99e20, 0),
			fxEvent(advisor.EventCheckpointed, math.MaxFloat64, 5e-324, 0),
			fxAdvised(),
			fxEvent(advisor.EventFailure, math.Copysign(0, -1), 0, 4095),
			fxEvent(advisor.EventRecovered, -2.5e-8, 0, 0),
			fxEvent(advisor.EventFailure, 123456789012345680000, 0, -1),
			fxEvent(advisor.EventFailure, 2.2250738585072014e-308, 0, math.MaxInt64),
			fxEvent(advisor.EventRecovered, 1.2345e+22, 0, math.MinInt64),
			fxAdvised(),
			fxEvent(advisor.EventProgress, 0.000001234, -1e-300, 0),
			fxAdvised(),
		}}, 16},
		{"tombstoned", nil, 6},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "sessions", fx.name+".log"))
			if err != nil {
				t.Fatal(err)
			}

			// Every record re-encodes to its bytes in the file.
			frames, torn, err := decodeFrames(data)
			if err != nil || torn != 0 || len(frames) != fx.lines {
				t.Fatalf("frames: %d, torn %d, err %v; want %d clean frames", len(frames), torn, err, fx.lines)
			}
			var re []byte
			for _, fr := range frames {
				rec, err := decodeSessionRecord(fr.payload, fr.off)
				if err != nil {
					t.Fatal(err)
				}
				if re, err = appendSessionRecord(re, rec); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("re-encoded log differs:\n got %s\nwant %s", re, data)
			}

			// A FileStore over the file replays it to the recorded values.
			dir := t.TempDir()
			st := openFile(t, dir, Options{})
			if err := os.WriteFile(filepath.Join(dir, "sessions", fx.name+".log"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := st.Replay(context.Background(), fx.name)
			if fx.want == nil {
				if !errors.Is(err, ErrTombstoned) {
					t.Fatalf("replay: %v, want ErrTombstoned", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Spec, fx.want.Spec) {
				t.Fatalf("spec = %+v, want %+v", rep.Spec, fx.want.Spec)
			}
			if len(rep.Steps) != len(fx.want.Steps) {
				t.Fatalf("replayed %d steps, want %d", len(rep.Steps), len(fx.want.Steps))
			}
			for i := range rep.Steps {
				if !sameStep(rep.Steps[i], fx.want.Steps[i]) {
					t.Fatalf("step %d = %+v, want %+v", i, rep.Steps[i], fx.want.Steps[i])
				}
			}
		})
	}
}

// TestCorruptErrorReportsLineOffset: a record whose checksum holds but
// whose payload the decoder rejects is reported at its line's start.
func TestCorruptErrorReportsLineOffset(t *testing.T) {
	dir := t.TempDir()
	st := openFile(t, dir, Options{})
	created, err := appendSessionRecord(nil, sessionRecord{kind: recCreated, spec: testSessionSpec()})
	if err != nil {
		t.Fatal(err)
	}
	log := appendFrame(bytes.Clone(created), []byte(`{"kind":"advised","extra":1}`))
	if err := os.WriteFile(filepath.Join(dir, "sessions", "s.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Replay(context.Background(), "s")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("replay: %v, want *CorruptError", err)
	}
	if ce.Offset != len(created) {
		t.Fatalf("offset = %d, want %d, the second line's start", ce.Offset, len(created))
	}
}

// TestFileStoreRefusesUncanonicalRecords: what the canonical form
// cannot carry is refused when appended, never acknowledged and then
// found unreadable at replay.
func TestFileStoreRefusesUncanonicalRecords(t *testing.T) {
	ctx := context.Background()
	st := openFile(t, t.TempDir(), Options{})
	bad := testSessionSpec()
	bad.Name = "not utf-8: \xff"
	if err := st.AppendCreated(ctx, "bad", bad); err == nil {
		t.Fatal("created a session whose spec does not round-trip")
	}
	if _, err := st.Replay(ctx, "bad"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("replay of a refused create: %v, want ErrNoSession", err)
	}
	if err := st.AppendCreated(ctx, "s", testSessionSpec()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []advisor.Event{
		{Kind: "bogus", Time: 1},
		{Kind: advisor.EventProgress, Time: math.NaN()},
		{Kind: advisor.EventProgress, Time: 1, Work: math.Inf(1)},
		{Kind: advisor.EventCheckpointed, Time: math.Inf(-1), Work: 1},
	} {
		if err := st.AppendEvent(ctx, "s", ev); err == nil {
			t.Fatalf("appended %+v", ev)
		}
	}
	rep, err := st.Replay(ctx, "s")
	if err != nil || len(rep.Steps) != 0 {
		t.Fatalf("replay after refused appends: %+v, %v", rep, err)
	}
}

// TestSessionImageRoundTrip: an image decodes back to the replay it
// records, whose Image is that image, and only as an image of exactly
// its record count.
func TestSessionImageRoundTrip(t *testing.T) {
	rep := &SessionReplay{Spec: testSessionSpec(), Steps: []advisor.ReplayStep{
		fxAdvised(),
		fxEvent(advisor.EventFailure, 100, 0, 7),
		fxEvent(advisor.EventRecovered, 160.5, 0, 0),
		fxAdvised(),
	}}
	image, err := AppendSessionImage(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSessionImage(image, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spec, rep.Spec) || !reflect.DeepEqual(got.Steps, rep.Steps) {
		t.Fatalf("decoded %+v, want %+v", got, rep)
	}
	if img, err := got.Image(); err != nil || !bytes.Equal(img, image) {
		t.Fatalf("decoded replay's image: %q, %v; want the image it was decoded from", img, err)
	}
	var ce *CorruptError
	for _, tc := range []struct {
		name    string
		image   []byte
		records int
	}{
		{"fewer records than announced", image, 6},
		{"more records than announced", image, 4},
		{"torn last record", image[:len(image)-3], 5},
		{"empty", nil, 0},
	} {
		if _, err := DecodeSessionImage(tc.image, tc.records); !errors.As(err, &ce) {
			t.Errorf("%s: %v, want *CorruptError", tc.name, err)
		}
	}
}
