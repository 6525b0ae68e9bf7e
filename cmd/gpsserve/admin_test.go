package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpsdl/internal/clock"
	"gpsdl/internal/engine"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/scenario"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/trace"
)

// newTestTelemetry wires the server instrument set the way runEngine
// does, around a one-receiver YYR1 engine with the quality layer on (the
// gpsserve defaults). rec may be nil (tracing disabled).
func newTestTelemetry(t *testing.T, maxAge time.Duration, rec *trace.Recorder) (*telemetry.Registry, *serverTelemetry) {
	t.Helper()
	return newTestServer(t, maxAge, engine.Config{Trace: rec})
}

// newTestServer is newTestTelemetry with extra engine settings in cfg
// (faults, seed, recorder); the station, registry, quality layer and
// sink are filled in as gpsserve sets them.
func newTestServer(t *testing.T, maxAge time.Duration, cfg engine.Config) (*telemetry.Registry, *serverTelemetry) {
	t.Helper()
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tel := wireTelemetry(reg, NewBroadcaster(), nil, maxAge, cfg.Trace)
	cfg.Receivers = 1
	cfg.Stations = []scenario.Station{st}
	cfg.Registry = reg
	cfg.Quality = &engine.QualityConfig{}
	cfg.Sink = tel.publish
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel.eng = eng
	tel.health.shards = eng.ShardHealth
	return reg, tel
}

// scrape fetches /metrics from the admin mux.
func scrape(t *testing.T, tel *serverTelemetry) string {
	t.Helper()
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4; charset=utf-8", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// The acceptance criterion: /metrics must serve Prometheus text format
// containing every key metric family from startup, before any traffic.
func TestAdminMetricsEndpoint(t *testing.T) {
	_, tel := newTestTelemetry(t, 0, nil)
	out := scrape(t, tel)
	for _, want := range []string{
		// Required families.
		"engine_solve_seconds",
		"engine_solve_failures_total",
		clock.MetricResets,
		clock.MetricCalibrations,
		clock.MetricOutliers,
		metricClients,
		// Per-shard histogram series in Prometheus text shape.
		`engine_solve_seconds_bucket{shard="0",le="`,
		`engine_solve_seconds_count{shard="0"} 0`,
		`engine_solve_failures_total{shard="0"} 0`,
		"# TYPE engine_solve_seconds histogram",
		"# TYPE gpsserve_clients gauge",
		// Connection and epoch-loop families.
		metricConnects,
		`gpsserve_drops_total{reason="slow"}`,
		metricEpochs,
		metricFixes,
		// DLG covariance-path counters.
		`gps_dlg_solves_total{path="fast"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// /metrics must reflect recorded activity: the engine's fixes reach the
// liveness counters through the sink, and the shared clock-predictor
// counters see every session's calibration.
func TestAdminMetricsReflectActivity(t *testing.T) {
	_, tel := newTestTelemetry(t, 0, nil)
	const epochs = 70 // past the predictor's 60-fix calibration window
	if err := tel.eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	out := scrape(t, tel)
	for _, want := range []string{
		"gpsserve_epochs_total 70",
		"gpsserve_fixes_total 70",
		`engine_fixes_total{shard="0"} 70`,
		`engine_solve_seconds_count{shard="0"} 70`,
		"gps_clock_calibrations_total 1",
		"gpsserve_hdop ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n%s", want, out)
		}
	}
}

func TestHealthzLifecycle(t *testing.T) {
	_, tel := newTestTelemetry(t, time.Hour, nil)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()

	get := func() (healthStatus, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("/healthz Content-Type = %q, want application/json; charset=utf-8", ct)
		}
		var hs healthStatus
		if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
			t.Fatal(err)
		}
		return hs, resp.StatusCode
	}

	// Before any fix: starting, unavailable.
	hs, code := get()
	if code != http.StatusServiceUnavailable || hs.Status != "starting" {
		t.Errorf("pre-fix healthz = %d %q, want 503 starting", code, hs.Status)
	}
	if hs.LastFixAgeSeconds != -1 {
		t.Errorf("pre-fix age = %v, want -1", hs.LastFixAgeSeconds)
	}

	// After a fix: ok.
	tel.health.recordEpoch()
	tel.health.recordFix(0.9)
	hs, code = get()
	if code != http.StatusOK || hs.Status != "ok" {
		t.Errorf("post-fix healthz = %d %q, want 200 ok", code, hs.Status)
	}
	if hs.Epochs != 1 || hs.Fixes != 1 {
		t.Errorf("healthz counters = %d epochs %d fixes", hs.Epochs, hs.Fixes)
	}
	if hs.LastFixAgeSeconds < 0 {
		t.Errorf("age = %v after a fix", hs.LastFixAgeSeconds)
	}
}

func TestHealthzStalled(t *testing.T) {
	_, tel := newTestTelemetry(t, time.Nanosecond, nil)
	tel.health.recordFix(1)
	time.Sleep(2 * time.Millisecond)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs healthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || hs.Status != "stalled" {
		t.Errorf("stale healthz = %d %q, want 503 stalled", resp.StatusCode, hs.Status)
	}
}

// Every mounted pprof route must answer 200 with a non-empty body —
// including the named profiles the index handler dispatches to.
func TestAdminPprofRoutes(t *testing.T) {
	_, tel := newTestTelemetry(t, 0, nil)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
		"/debug/pprof/heap",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/allocs",
		"/debug/pprof/threadcreate",
		"/debug/pprof/block",
		"/debug/pprof/mutex",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s returned an empty body", path)
		}
	}
}

// /healthz must expose broadcaster backpressure: the live client count
// and the cumulative drop total.
func TestHealthzBackpressure(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBroadcaster()
	tel := wireTelemetry(reg, b, nil, time.Hour, nil)
	// Register one fake client and two historical drops directly; the
	// broadcaster lifecycle itself is covered by the server tests.
	b.clients[nil] = nil
	b.Metrics.SlowDrops.Inc()
	b.Metrics.ShutdownDrops.Inc()
	tel.health.recordEpoch()
	tel.health.recordFix(1)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs healthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	if hs.Clients != 1 {
		t.Errorf("healthz clients = %d, want 1", hs.Clients)
	}
	if hs.Drops != 2 {
		t.Errorf("healthz drops = %d, want 2", hs.Drops)
	}
}

// With a recorder wired in, the /debug/trace routes must serve the
// retained traces, the Chrome export, and the exemplar tail.
func TestAdminTraceRoutes(t *testing.T) {
	rec := trace.New(trace.Config{Capacity: 8})
	_, tel := newTestTelemetry(t, 0, rec)
	tb := rec.StartEpoch(3, 1.5)
	sp := tb.Start("solve/dlg")
	sp.End()
	tb.Finish()
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("GET %s Content-Type = %q, want application/json; charset=utf-8", path, ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/debug/trace"); !strings.Contains(out, `"solve/dlg"`) || !strings.Contains(out, `"count": 1`) {
		t.Errorf("/debug/trace body missing trace: %s", out)
	}
	chrome := get("/debug/trace/chrome")
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &ct); err != nil {
		t.Fatalf("/debug/trace/chrome not JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Error("/debug/trace/chrome has no traceEvents")
	}
	if out := get("/debug/trace/exemplars"); !strings.Contains(out, `"exemplars"`) {
		t.Errorf("/debug/trace/exemplars body: %s", out)
	}
}

// Without a recorder the trace routes answer 404, distinguishing
// "tracing disabled" from "no traces yet".
func TestAdminTraceDisabled(t *testing.T) {
	_, tel := newTestTelemetry(t, 0, nil)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	for _, path := range []string{"/debug/trace", "/debug/trace/chrome", "/debug/trace/exemplars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// The served fix stream records one trace per epoch (a single receiver
// samples every epoch) with the full stage span set, and captures
// exemplars that replay byte-identically when a threshold is crossed.
func TestStreamFixesTraces(t *testing.T) {
	rec := trace.New(trace.Config{Capacity: 128, SlowThreshold: time.Nanosecond})
	_, tel := newTestTelemetry(t, 0, rec)
	const epochs = 100
	if err := tel.eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != epochs {
		t.Fatalf("recorded %d traces, want one per epoch (%d)", rec.Count(), epochs)
	}
	// The most recent trace is past the predictor's warm-up, so the
	// primary DLG solver produced its fix.
	fix := rec.Snapshot()[0]
	if fix.Err != "" {
		t.Fatalf("epoch %d trace failed: %s", fix.Epoch, fix.Err)
	}
	for _, name := range []string{
		"epoch/generate", "clock/predict", "solve/dlg-fast",
		"dop/compute", "quality", "nmea/encode", "broadcast",
	} {
		if fix.Span(name) == nil {
			t.Errorf("trace missing span %s: %+v", name, fix.Spans)
		}
	}
	if fix.T != float64(fix.Epoch) {
		t.Errorf("trace T = %v, want the epoch time %d", fix.T, fix.Epoch)
	}
	exs := rec.Exemplars()
	if len(exs) == 0 {
		t.Fatal("1 ns slow threshold captured no exemplars")
	}
	in, err := eval.DecodeReplayInput(exs[0])
	if err != nil {
		t.Fatal(err)
	}
	if in.Solver != "DLG-fast" || len(in.Obs) == 0 || in.Station.ID != "YYR1" {
		t.Fatalf("exemplar input = %+v", in)
	}
	sol, err := in.ReplaySolver().Solve(in.T, in.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Pos != in.Solution {
		t.Errorf("exemplar replay %+v != captured %+v", sol.Pos, in.Solution)
	}
}

// RAIM runs inside the engine's solver chain, and its verdict rides on
// the solve span: an epoch whose faulted satellite RAIM excluded carries
// the excluded index there.
func TestStreamFixesRAIMSpans(t *testing.T) {
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := scenario.NewGenerator(st, scenario.DefaultConfig(1)).EpochAt(10)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fault.ParseSpec(fmt.Sprintf("step:prn=%d,bias=500,from=5,until=40", ep.Obs[0].PRN))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(trace.Config{Capacity: 64})
	_, tel := newTestServer(t, 0, engine.Config{Trace: rec, Faults: prog})
	if err := tel.eng.Run(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	var excluded *trace.Trace
	for _, tr := range rec.Snapshot() {
		if tr.Span("fault/inject") == nil {
			t.Fatalf("epoch %d trace missing the fault/inject span: %+v", tr.Epoch, tr.Spans)
		}
		for _, sp := range tr.Spans {
			if !strings.HasPrefix(sp.Name, "solve/") {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "excluded" && a.Value != -1 {
					excluded = tr
				}
			}
		}
	}
	if excluded == nil {
		t.Fatal("no solve span carries a RAIM exclusion under a 500 m step fault")
	}
	if excluded.Epoch < 5 {
		t.Errorf("exclusion at epoch %d, before the fault window", excluded.Epoch)
	}
}
