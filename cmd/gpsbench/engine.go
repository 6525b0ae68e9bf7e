// Engine throughput mode: -engine sweeps the multi-receiver fix engine
// over a list of receiver counts and reports steady-state fixes/sec for
// each. Epochs are pregenerated so the measurement isolates the solver
// hot path (linearize → solve → DOP → NMEA) from scenario synthesis,
// and every session is warmed past the clock predictor's calibration
// window before the timed run. -engine-json writes the series as a
// machine-readable file (see EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpsdl/internal/engine"
)

// engineBenchConfig holds the -engine-* flag values.
type engineBenchConfig struct {
	receivers []int
	epochs    int
	warmup    int
	solver    string
	workers   int
	seed      int64
	jsonPath  string

	// Live-generation arms: epochs synthesized during the timed run
	// (no pregeneration), with the shared epoch cache off and on, at
	// GOMAXPROCS 1 and 4.
	live          bool
	liveReceivers int
	liveEpochs    int
}

// engineBenchPoint is one receiver-count measurement in the JSON series.
type engineBenchPoint struct {
	Receivers     int     `json:"receivers"`
	Workers       int     `json:"workers"`
	Fixes         uint64  `json:"fixes"`
	SolveFailures uint64  `json:"solve_failures"`
	EpochErrors   uint64  `json:"epoch_errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	FixesPerSec   float64 `json:"fixes_per_sec"`
}

// engineLivePoint is one live-generation arm: scenario synthesis runs
// inside the timed loop, isolating the epoch cache's effect on serving
// throughput. Arm is the first field on purpose — scripts/bench_gate.sh
// keys points by the "arm" value preceding their metrics.
type engineLivePoint struct {
	Arm           string  `json:"arm"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Receivers     int     `json:"receivers"`
	Workers       int     `json:"workers"`
	EpochCache    bool    `json:"epoch_cache"`
	Fixes         uint64  `json:"fixes"`
	SolveFailures uint64  `json:"solve_failures"`
	EpochErrors   uint64  `json:"epoch_errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	FixesPerSec   float64 `json:"fixes_per_sec"`
}

// engineBenchReport is the -engine-json document.
type engineBenchReport struct {
	Benchmark  string `json:"benchmark"`
	Solver     string `json:"solver"`
	Epochs     int    `json:"epochs_per_receiver"`
	Warmup     int    `json:"warmup_epochs"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Trials is how many interleaved sweeps each point is the median of.
	Trials int                `json:"trials"`
	Series []engineBenchPoint `json:"series"`
	// LiveSeries must stay after Series: the bench gate treats points
	// before the first "arm" key as the pregenerated sweep.
	LiveSeries []engineLivePoint `json:"live_series,omitempty"`
}

// parseReceiverList parses a comma-separated list of receiver counts.
func parseReceiverList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad receiver count %q (want positive integers, e.g. \"1,2,4,8\")", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty receiver list")
	}
	return out, nil
}

// engineTrials is how many interleaved sweeps each reported point is
// the median of. A point is one ~10–100 ms run, and on a shared host a
// single run of the same code spreads by tens of percent; the median of
// three sweeps, each running every point in turn, is what the committed
// baseline and the bench gate both record.
const engineTrials = 3

// runEngineBench sweeps the engine across receiver counts and prints a
// fixes/sec table; with cfg.jsonPath it also writes the series as JSON.
// Every point is the median of engineTrials interleaved sweeps.
func runEngineBench(cfg engineBenchConfig) error {
	report := engineBenchReport{
		Benchmark:  "engine",
		Solver:     cfg.solver,
		Epochs:     cfg.epochs,
		Warmup:     cfg.warmup,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Trials:     engineTrials,
	}
	var series [][]engineBenchPoint
	var live [][]engineLivePoint
	for t := 0; t < engineTrials; t++ {
		s, l, err := engineSweep(cfg)
		if err != nil {
			return err
		}
		series = append(series, s)
		live = append(live, l)
	}
	report.Series = medianPoints(series, func(p engineBenchPoint) float64 { return p.FixesPerSec })
	report.LiveSeries = medianPoints(live, func(p engineLivePoint) float64 { return p.FixesPerSec })

	fmt.Printf("engine throughput: solver=%s epochs/receiver=%d warmup=%d GOMAXPROCS=%d (median of %d sweeps)\n",
		cfg.solver, cfg.epochs, cfg.warmup, report.GOMAXPROCS, engineTrials)
	fmt.Printf("%10s %8s %12s %10s %14s\n", "receivers", "workers", "fixes", "elapsed", "fixes/sec")
	for _, pt := range report.Series {
		fmt.Printf("%10d %8d %12d %9.3fs %14.0f\n",
			pt.Receivers, pt.Workers, pt.Fixes, pt.ElapsedSec, pt.FixesPerSec)
	}
	if cfg.live {
		fmt.Printf("live generation: receivers=%d epochs/receiver=%d (no pregeneration); DLG covariance routes: epochs/receiver=%d (pregenerated)\n",
			cfg.liveReceivers, cfg.liveEpochs, cfg.epochs)
		fmt.Printf("%14s %6s %8s %12s %10s %14s\n", "arm", "procs", "cache", "fixes", "elapsed", "fixes/sec")
		for _, pt := range report.LiveSeries {
			fmt.Printf("%14s %6d %8v %12d %9.3fs %14.0f\n",
				pt.Arm, pt.GOMAXPROCS, pt.EpochCache, pt.Fixes, pt.ElapsedSec, pt.FixesPerSec)
		}
	}
	if cfg.jsonPath != "" {
		if err := writeEngineJSON(cfg.jsonPath, report); err != nil {
			return err
		}
	}
	return nil
}

// engineSweep runs every point once: the pregenerated receiver sweep,
// then (with cfg.live) the live-generation arms and, for DLG, the
// covariance-route arms.
func engineSweep(cfg engineBenchConfig) ([]engineBenchPoint, []engineLivePoint, error) {
	var series []engineBenchPoint
	for _, r := range cfg.receivers {
		pt, err := benchEngineOnce(cfg, r)
		if err != nil {
			return nil, nil, fmt.Errorf("receivers=%d: %w", r, err)
		}
		series = append(series, pt)
	}
	var live []engineLivePoint
	if cfg.live {
		for _, procs := range []int{1, 4} {
			for _, cache := range []bool{false, true} {
				pt, err := benchEngineLiveOnce(cfg, procs, cache)
				if err != nil {
					return nil, nil, fmt.Errorf("live procs=%d cache=%v: %w", procs, cache, err)
				}
				live = append(live, pt)
			}
		}
	}
	if cfg.live && cfg.solver == "dlg" {
		// DLG covariance-route arms: pregenerated epochs, so the delta
		// between the O(m) Sherman–Morrison fast path (the engine default)
		// and the paper's dense-Cholesky route is the per-fix DLG cost.
		for _, variant := range []string{"fast", "paper"} {
			pt, err := benchEngineVariantOnce(cfg, variant)
			if err != nil {
				return nil, nil, fmt.Errorf("variant %s: %w", variant, err)
			}
			live = append(live, pt)
		}
	}
	return series, live, nil
}

// medianPoints returns, for each point index, the trial whose rate is
// the median of that point across trials (every trial has the same
// points in the same order).
func medianPoints[P any](trials [][]P, rate func(P) float64) []P {
	out := make([]P, len(trials[0]))
	col := make([]P, len(trials))
	for i := range out {
		for t := range trials {
			col[t] = trials[t][i]
		}
		sort.Slice(col, func(a, b int) bool { return rate(col[a]) < rate(col[b]) })
		out[i] = col[len(col)/2]
	}
	return out
}

// benchEngineLiveOnce measures one live-generation arm: no pregenerated
// epochs, so each timed step pays constellation propagation, visibility,
// light-time emission and noise synthesis before solving. Cache on vs
// off isolates the shared per-epoch snapshot's contribution; GOMAXPROCS
// is pinned per arm and restored afterwards.
func benchEngineLiveOnce(cfg engineBenchConfig, procs int, cache bool) (engineLivePoint, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	eng, err := engine.New(engine.Config{
		Receivers:         cfg.liveReceivers,
		Workers:           procs,
		Solver:            cfg.solver,
		Seed:              cfg.seed,
		DisableEpochCache: !cache,
		Sink:              func(engine.FixEvent) {},
	})
	if err != nil {
		return engineLivePoint{}, err
	}
	ctx := context.Background()
	if cfg.warmup > 0 {
		if err := eng.Run(ctx, cfg.warmup); err != nil {
			return engineLivePoint{}, err
		}
	}
	before := eng.Stats()
	start := time.Now()
	if err := eng.Run(ctx, cfg.liveEpochs); err != nil {
		return engineLivePoint{}, err
	}
	elapsed := time.Since(start).Seconds()
	after := eng.Stats()
	arm := fmt.Sprintf("live-p%d", procs)
	if cache {
		arm = fmt.Sprintf("live-cache-p%d", procs)
	}
	pt := engineLivePoint{
		Arm:           arm,
		GOMAXPROCS:    procs,
		Receivers:     cfg.liveReceivers,
		Workers:       eng.Workers(),
		EpochCache:    cache,
		Fixes:         after.Fixes - before.Fixes,
		SolveFailures: after.SolveFailures - before.SolveFailures,
		EpochErrors:   after.EpochErrors - before.EpochErrors,
		ElapsedSec:    elapsed,
	}
	if elapsed > 0 {
		pt.FixesPerSec = float64(pt.Fixes) / elapsed
	}
	return pt, nil
}

// benchEngineVariantOnce measures one DLG covariance route over
// pregenerated epochs, isolating the solver hot path exactly like the
// main sweep; the series point reuses the live-arm JSON shape so the
// bench gate keys it by its arm name ("dlg-fast", "dlg-paper").
func benchEngineVariantOnce(cfg engineBenchConfig, variant string) (engineLivePoint, error) {
	eng, err := engine.New(engine.Config{
		Receivers:  cfg.liveReceivers,
		Workers:    cfg.workers,
		Solver:     cfg.solver,
		DLGVariant: variant,
		Seed:       cfg.seed,
		Sink:       func(engine.FixEvent) {},
	})
	if err != nil {
		return engineLivePoint{}, err
	}
	pre := cfg.epochs
	if cfg.warmup > pre {
		pre = cfg.warmup
	}
	if err := eng.Pregenerate(pre); err != nil {
		return engineLivePoint{}, err
	}
	ctx := context.Background()
	if cfg.warmup > 0 {
		if err := eng.Run(ctx, cfg.warmup); err != nil {
			return engineLivePoint{}, err
		}
	}
	before := eng.Stats()
	start := time.Now()
	if err := eng.Run(ctx, cfg.epochs); err != nil {
		return engineLivePoint{}, err
	}
	elapsed := time.Since(start).Seconds()
	after := eng.Stats()
	pt := engineLivePoint{
		Arm:           "dlg-" + variant,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Receivers:     cfg.liveReceivers,
		Workers:       eng.Workers(),
		Fixes:         after.Fixes - before.Fixes,
		SolveFailures: after.SolveFailures - before.SolveFailures,
		EpochErrors:   after.EpochErrors - before.EpochErrors,
		ElapsedSec:    elapsed,
	}
	if elapsed > 0 {
		pt.FixesPerSec = float64(pt.Fixes) / elapsed
	}
	return pt, nil
}

// benchEngineOnce measures one receiver count: build, pregenerate, warm
// every session past the predictor calibration window, then time a full
// run. The warm-up epochs are excluded from the timed stats by diffing
// the cumulative counters around the measured run.
func benchEngineOnce(cfg engineBenchConfig, receivers int) (engineBenchPoint, error) {
	eng, err := engine.New(engine.Config{
		Receivers: receivers,
		Workers:   cfg.workers,
		Solver:    cfg.solver,
		Seed:      cfg.seed,
		Sink:      func(engine.FixEvent) {},
	})
	if err != nil {
		return engineBenchPoint{}, err
	}
	pre := cfg.epochs
	if cfg.warmup > pre {
		pre = cfg.warmup
	}
	if err := eng.Pregenerate(pre); err != nil {
		return engineBenchPoint{}, err
	}
	ctx := context.Background()
	// Epoch indices restart at 0 every Run, so the warm-up pass trains
	// the clock predictors on the same epochs the timed pass replays.
	if cfg.warmup > 0 {
		if err := eng.Run(ctx, cfg.warmup); err != nil {
			return engineBenchPoint{}, err
		}
	}
	before := eng.Stats()
	start := time.Now()
	if err := eng.Run(ctx, cfg.epochs); err != nil {
		return engineBenchPoint{}, err
	}
	elapsed := time.Since(start).Seconds()
	after := eng.Stats()
	pt := engineBenchPoint{
		Receivers:     receivers,
		Workers:       eng.Workers(),
		Fixes:         after.Fixes - before.Fixes,
		SolveFailures: after.SolveFailures - before.SolveFailures,
		EpochErrors:   after.EpochErrors - before.EpochErrors,
		ElapsedSec:    elapsed,
	}
	if elapsed > 0 {
		pt.FixesPerSec = float64(pt.Fixes) / elapsed
	}
	return pt, nil
}

// writeEngineJSON dumps the throughput series for EXPERIMENTS.md /
// regression tracking.
func writeEngineJSON(path string, report engineBenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
