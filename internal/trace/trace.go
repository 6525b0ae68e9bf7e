// Package trace is the repository's per-fix tracing layer: lightweight
// nested spans collected into one Trace per epoch, a lock-free ring
// buffer ("flight recorder") retaining the most recent traces, and a
// tail of exemplars — pathological fixes captured with their complete
// input for offline replay.
//
// Where internal/telemetry answers "how many fixes per second, at what
// latency?", this package answers "which stage of which epoch was slow".
// The design rules are the same: stdlib only, every method is a no-op on
// a nil receiver, and an un-instrumented code path pays at most a
// pointer test (never a clock read), so the solve hot paths are
// unchanged when no Recorder is configured.
//
// Usage:
//
//	t := recorder.StartEpoch(i, epoch.T)     // nil recorder → nil t
//	sp := t.Start("solve/dlg")
//	... solve ...
//	sp.End()
//	t.Finish()                                // pushes into the ring
package trace

import (
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are kept as `any`
// so they serialize naturally into JSON and Chrome trace_event args.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// SpanRecord is one completed stage of a trace. Times are offsets from
// the trace start so a serialized trace is self-contained.
type SpanRecord struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Trace is the complete span set of one fix attempt.
type Trace struct {
	// ID is assigned by the recorder when the trace is finished
	// (monotonically increasing since process start).
	ID uint64 `json:"id"`
	// Epoch is the epoch index within the stream or dataset.
	Epoch int `json:"epoch"`
	// T is the receiver timestamp of the epoch (seconds).
	T float64 `json:"t"`
	// Start is the wall-clock time the trace began.
	Start time.Time `json:"start"`
	// Spans lists the completed stages in End() order.
	Spans []SpanRecord `json:"spans"`
	// Err carries the solve error for failed fixes ("" on success).
	Err string `json:"err,omitempty"`
}

// Span returns the first span with the given name, or nil.
func (t *Trace) Span(name string) *SpanRecord {
	if t == nil {
		return nil
	}
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// T accumulates spans for one in-flight fix. A nil *T (tracing
// disabled) makes every method a no-op, so callers instrument
// unconditionally. Span appends are mutex-guarded: the epoch pipelines
// are single-goroutine, but the broadcast stage may finish spans while
// an admin scrape snapshots the ring.
type T struct {
	mu  sync.Mutex
	tr  Trace
	rec *Recorder
}

// Start opens a live span; call End on the returned span to record it.
// Nil-safe: a nil *T yields a nil *Span whose methods no-op without
// reading the clock.
func (t *T) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, attrs: attrs, start: time.Now()}
}

// AddSpan records a pre-measured span at the given offset from the
// trace start — used by harnesses (eval.Sweep) that already timed the
// stage and must not add clock reads inside the measured region.
func (t *T) AddSpan(name string, start, dur time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tr.Spans = append(t.tr.Spans, SpanRecord{
		Name:    name,
		StartNs: start.Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
		Attrs:   attrs,
	})
	t.mu.Unlock()
}

// Offset converts a wall-clock instant into an offset from the trace
// start, for AddSpan callers that timed a stage themselves. Nil-safe.
func (t *T) Offset(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.tr.Start)
}

// SetT records the epoch's receiver timestamp — used when the trace
// must start before the epoch itself is generated (the generation is
// the first traced stage).
func (t *T) SetT(v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tr.T = v
	t.mu.Unlock()
}

// SetErr marks the trace as a failed fix.
func (t *T) SetErr(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	t.tr.Err = err.Error()
	t.mu.Unlock()
}

// Finish seals the trace and pushes it into the recorder's ring,
// returning the completed Trace (nil for a nil *T).
func (t *T) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	tr := t.tr // copy; the ring owns an immutable snapshot
	t.mu.Unlock()
	return t.rec.add(&tr)
}

// Span is one live stage timing. Nil-safe.
type Span struct {
	t     *T
	name  string
	start time.Time
	attrs []Attr
}

// SetAttr appends annotations to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s != nil {
		s.attrs = append(s.attrs, attrs...)
	}
}

// End records the span into its trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.tr.Spans = append(s.t.tr.Spans, SpanRecord{
		Name:    s.name,
		StartNs: s.start.Sub(s.t.tr.Start).Nanoseconds(),
		DurNs:   now.Sub(s.start).Nanoseconds(),
		Attrs:   s.attrs,
	})
	s.t.mu.Unlock()
}
