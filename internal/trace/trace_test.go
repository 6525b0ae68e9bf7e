package trace

import (
	"errors"
	"testing"
	"time"
)

// A nil recorder must make the entire instrumentation chain no-op
// without panicking: nil *T, nil *Span.
func TestNilSafety(t *testing.T) {
	var rec *Recorder
	tr := rec.StartEpoch(3, 1.5)
	if tr != nil {
		t.Fatalf("nil recorder StartEpoch = %v, want nil", tr)
	}
	sp := tr.Start("solve/dlg", Int("sats", 8))
	sp.SetAttr(Float("err_m", 1.0))
	sp.End()
	tr.AddSpan("x", 0, time.Millisecond)
	tr.SetErr(errors.New("boom"))
	if got := tr.Finish(); got != nil {
		t.Fatalf("nil T Finish = %v, want nil", got)
	}
	if got := tr.Offset(time.Now()); got != 0 {
		t.Errorf("nil T Offset = %v, want 0", got)
	}
	if rec.ExemplarReason(time.Second, 1e9) != "" {
		t.Error("nil recorder must never classify exemplars")
	}
	if rec.Snapshot() != nil || rec.Exemplars() != nil || rec.Count() != 0 {
		t.Error("nil recorder snapshots must be empty")
	}
}

func TestSpanLifecycle(t *testing.T) {
	rec := New(Config{Capacity: 8})
	tr := rec.StartEpoch(7, 42.5)

	sp := tr.Start("solve/dlg", Int("sats", 8))
	time.Sleep(time.Millisecond)
	sp.SetAttr(Int("iterations", 1))
	sp.End()
	tr.AddSpan("nmea/encode", 2*time.Millisecond, 50*time.Microsecond, String("kind", "gga"))
	if off := tr.Offset(time.Now()); off < time.Millisecond {
		t.Errorf("Offset(now) = %v, want >= the 1ms the span slept", off)
	}
	got := tr.Finish()

	if got.Epoch != 7 || got.T != 42.5 {
		t.Errorf("trace identity = epoch %d t %v", got.Epoch, got.T)
	}
	if got.ID == 0 {
		t.Error("finished trace has no ID")
	}
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(got.Spans))
	}
	solve := got.Span("solve/dlg")
	if solve == nil {
		t.Fatal("missing solve/dlg span")
	}
	if solve.DurNs < int64(time.Millisecond) {
		t.Errorf("solve span dur = %d ns, want >= 1ms", solve.DurNs)
	}
	if len(solve.Attrs) != 2 {
		t.Errorf("solve attrs = %v", solve.Attrs)
	}
	enc := got.Span("nmea/encode")
	if enc == nil || enc.StartNs != int64(2*time.Millisecond) || enc.DurNs != int64(50*time.Microsecond) {
		t.Errorf("pre-measured span = %+v", enc)
	}
	if got.Span("missing") != nil {
		t.Error("Span on absent name must be nil")
	}
}

func TestRingRetainsMostRecent(t *testing.T) {
	rec := New(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		tr := rec.StartEpoch(i, float64(i))
		tr.AddSpan("solve/nr", 0, time.Microsecond)
		tr.Finish()
	}
	if rec.Count() != 10 {
		t.Fatalf("count = %d, want 10", rec.Count())
	}
	snap := rec.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, tr := range snap {
		if want := 9 - i; tr.Epoch != want {
			t.Errorf("snapshot[%d].Epoch = %d, want %d", i, tr.Epoch, want)
		}
	}
}

func TestTraceErr(t *testing.T) {
	rec := New(Config{Capacity: 2})
	tr := rec.StartEpoch(0, 0)
	tr.SetErr(errors.New("clock predictor not ready"))
	got := tr.Finish()
	if got.Err != "clock predictor not ready" {
		t.Errorf("Err = %q", got.Err)
	}
}

func TestExemplarThresholds(t *testing.T) {
	rec := New(Config{SlowThreshold: time.Millisecond, ResidualThreshold: 100})
	cases := []struct {
		solve time.Duration
		resid float64
		want  string
	}{
		{time.Microsecond, 5, ""},
		{2 * time.Millisecond, 5, ReasonSlow},
		{time.Microsecond, 500, ReasonResidual},
		{2 * time.Millisecond, 500, ReasonSlow}, // latency wins the tie
	}
	for _, c := range cases {
		if got := rec.ExemplarReason(c.solve, c.resid); got != c.want {
			t.Errorf("ExemplarReason(%v, %g) = %q, want %q", c.solve, c.resid, got, c.want)
		}
	}
	// Disabled thresholds never fire.
	off := New(Config{})
	if off.ExemplarReason(time.Hour, 1e12) != "" {
		t.Error("zero thresholds must disable capture")
	}
}

func TestExemplarTail(t *testing.T) {
	rec := New(Config{Exemplars: 2})
	for i := 0; i < 5; i++ {
		rec.AddExemplar(&Exemplar{Reason: ReasonSlow, SolveNanos: int64(i)})
	}
	exs := rec.Exemplars()
	if len(exs) != 2 {
		t.Fatalf("exemplars = %d, want 2", len(exs))
	}
	if exs[0].SolveNanos != 4 || exs[1].SolveNanos != 3 {
		t.Errorf("exemplar order = %d, %d, want 4, 3", exs[0].SolveNanos, exs[1].SolveNanos)
	}
	if exs[0].CapturedAt.IsZero() {
		t.Error("CapturedAt not stamped")
	}
}

// Concurrent publishes against concurrent snapshots must neither race
// (go test -race) nor produce out-of-order snapshots.
func TestConcurrentRecorder(t *testing.T) {
	rec := New(Config{Capacity: 16})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			tr := rec.StartEpoch(i, float64(i))
			tr.AddSpan("solve/nr", 0, time.Nanosecond)
			tr.Finish()
		}
	}()
	for i := 0; i < 100; i++ {
		snap := rec.Snapshot()
		for j := 1; j < len(snap); j++ {
			if snap[j].ID >= snap[j-1].ID {
				t.Fatalf("snapshot IDs not strictly decreasing: %d then %d", snap[j-1].ID, snap[j].ID)
			}
		}
	}
	<-done
}

// The disabled path must cost no more than a few nanoseconds per stage
// — the tracing analogue of the telemetry nil-instrument guarantee.
func BenchmarkSpanDisabled(b *testing.B) {
	var rec *Recorder
	tr := rec.StartEpoch(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("solve/dlg")
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	rec := New(Config{Capacity: 64})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := rec.StartEpoch(i, 0)
		sp := tr.Start("solve/dlg", Int("sats", 8))
		sp.End()
		tr.Finish()
	}
}
