package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"gpsdl/internal/fault"
	"gpsdl/internal/scenario"
	"gpsdl/internal/trace"
)

// renderEvent flattens a fix event — solution, quality, fault log, error
// and the GGA/RMC bytes — into one string for bit-exact comparison.
func renderEvent(e FixEvent) string {
	errMsg := ""
	if e.Err != nil {
		errMsg = e.Err.Error()
	}
	gga, rmc := string(e.GGA), string(e.RMC)
	e.GGA, e.RMC, e.Err = nil, nil, nil
	return fmt.Sprintf("%+v|%s|%q|%q", e, errMsg, gga, rmc)
}

// journalBody strips the journal header (magic, version, meta length,
// meta JSON, CRC): the meta carries a wall-clock creation stamp, every
// byte after it is a pure function of the run.
func journalBody(t *testing.T, b []byte) []byte {
	t.Helper()
	n, w := binary.Uvarint(b[5:])
	if w <= 0 {
		t.Fatal("journal header has no meta length")
	}
	return b[5+w+int(n)+4:]
}

// runParity runs a single-shard journaling engine with the quality layer
// on, returning each receiver's rendered event stream and the journal
// body. rec may be nil.
func runParity(t *testing.T, prog fault.Program, rec *trace.Recorder) ([][]string, []byte) {
	t.Helper()
	const receivers, epochs = 3, 150
	out := make([][]string, receivers)
	var jbuf bytes.Buffer
	eng, err := New(Config{
		Receivers: receivers, Workers: 1, Seed: 42,
		Faults: prog, FaultSeed: 1234,
		Quality:     &QualityConfig{},
		JournalSink: &jbuf,
		Trace:       rec,
		Sink:        func(e FixEvent) { out[e.Receiver] = append(out[e.Receiver], renderEvent(e)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	return out, journalBody(t, jbuf.Bytes())
}

// TestTracingParity: tracing only observes. An engine with a recorder —
// one capturing every traced fix as an exemplar, so the capture path
// runs too — emits bit-identical fix events, GGA/RMC bytes and journal
// bytes to one without, clean and under the reference fault program.
func TestTracingParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog fault.Program
	}{{"clean", nil}, {"faulted", faultProgram(t)}} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.New(trace.Config{Capacity: 256, SlowThreshold: time.Nanosecond})
			plainEv, plainJ := runParity(t, tc.prog, nil)
			tracedEv, tracedJ := runParity(t, tc.prog, rec)
			for r := range plainEv {
				if len(tracedEv[r]) != len(plainEv[r]) {
					t.Fatalf("receiver %d: %d traced events, %d untraced", r, len(tracedEv[r]), len(plainEv[r]))
				}
				for i := range plainEv[r] {
					if tracedEv[r][i] != plainEv[r][i] {
						t.Fatalf("receiver %d event %d differs with tracing:\n  traced   %s\n  untraced %s",
							r, i, tracedEv[r][i], plainEv[r][i])
					}
				}
			}
			if !bytes.Equal(tracedJ, plainJ) {
				t.Errorf("journal bodies differ with tracing (%d vs %d bytes)", len(tracedJ), len(plainJ))
			}
			if rec.Count() == 0 || len(rec.Exemplars()) == 0 {
				t.Fatalf("traced run recorded %d traces, %d exemplars", rec.Count(), len(rec.Exemplars()))
			}
			// Every layer that ran is named in the most recent fix trace.
			want := []string{"epoch/generate", "clock/predict", "dop/compute",
				"quality", "journal", "nmea/encode", "broadcast"}
			if tc.prog != nil {
				want = append(want, "fault/inject")
			}
			var fix *trace.Trace
			for _, tr := range rec.Snapshot() {
				if tr.Err == "" && tr.Span("dop/compute") != nil { // not failed or coasted
					fix = tr
					break
				}
			}
			if fix == nil {
				t.Fatal("no traced epoch produced a solved fix")
			}
			for _, name := range want {
				if fix.Span(name) == nil {
					t.Errorf("epoch %d trace missing span %s: %+v", fix.Epoch, name, fix.Spans)
				}
			}
		})
	}
}

// TestTraceSamplingOnePerEpoch: session k of R traces epoch i when
// i%R == k, so the engine records exactly one trace per epoch index
// whatever the receiver count.
func TestTraceSamplingOnePerEpoch(t *testing.T) {
	const epochs = 48
	for _, receivers := range []int{1, 3, 8} {
		t.Run(fmt.Sprint(receivers), func(t *testing.T) {
			rec := trace.New(trace.Config{Capacity: 2 * epochs})
			eng, err := New(Config{Receivers: receivers, Workers: 2, Seed: 3, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(context.Background(), epochs); err != nil {
				t.Fatal(err)
			}
			if got := rec.Count(); got != epochs {
				t.Fatalf("recorded %d traces over %d epochs, want one per epoch", got, epochs)
			}
			seen := make([]int, epochs)
			for _, tr := range rec.Snapshot() {
				seen[tr.Epoch]++
				if tr.Span("epoch/generate") == nil || tr.Span("broadcast") == nil {
					t.Errorf("epoch %d trace spans = %+v", tr.Epoch, tr.Spans)
				}
			}
			for i, n := range seen {
				if n != 1 {
					t.Errorf("epoch %d traced %d times, want 1", i, n)
				}
			}
		})
	}
}

// TestDatasetReplay: a Dataset becomes the single session's epochs, at
// the dataset's station. Playing it yields one event per recorded
// epoch, fixes follow the dataset's timestamps, and an index past its
// end is an epoch error, never a wrap-around.
func TestDatasetReplay(t *testing.T) {
	st, err := scenario.StationByID("FAI1")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := scenario.NewGenerator(st, scenario.DefaultConfig(4)).GenerateRange(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	var events []FixEvent
	eng, err := New(Config{Receivers: 1, Dataset: ds, Solver: "nr",
		Sink: func(e FixEvent) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), ds.Len()+1); err != nil {
		t.Fatal(err)
	}
	if len(events) != ds.Len()+1 {
		t.Fatalf("%d events for %d epochs", len(events), ds.Len()+1)
	}
	for i, e := range events[:ds.Len()] {
		if e.Err != nil || e.T != ds.Epochs[i].T {
			t.Fatalf("epoch %d: err %v, T %v want %v", i, e.Err, e.T, ds.Epochs[i].T)
		}
		if d := e.Sol.Pos.DistanceTo(st.Pos); d > 100 {
			t.Fatalf("epoch %d fix %.1f m from %s", i, d, st.ID)
		}
	}
	if last := events[ds.Len()]; !errors.Is(last.Err, errPastPregenerated) {
		t.Errorf("epoch past the dataset: err %v, want errPastPregenerated", last.Err)
	}
	if ids := eng.SessionIDs(); len(ids) != 1 || eng.sessions[0].station != st.ID {
		t.Errorf("dataset engine sessions %v at station %q", ids, eng.sessions[0].station)
	}

	if _, err := New(Config{Receivers: 2, Dataset: ds}); err == nil {
		t.Error("a dataset with Receivers=2 was accepted")
	}
	if _, err := New(Config{Receivers: 1, Dataset: &scenario.Dataset{Station: st}}); err == nil {
		t.Error("an empty dataset was accepted")
	}
}
