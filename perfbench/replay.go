package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/fault"
	"gpsdl/internal/geo"
	"gpsdl/internal/journal"
	"gpsdl/internal/rng"
	"gpsdl/internal/scenario"
	"gpsdl/internal/telemetry"
)

// Replay workload shape. Both replay workloads share receivers, seed and
// span, so their difference is the fault, quality and journal layers.
const (
	replayReceivers = 8
	replayWorkers   = 2
	// faultPeriod is the reference fault program's span in epochs
	// (Step = 1 s). The warm-up is one period: it calibrates the clock
	// predictors (60 epochs) and fills the 600-epoch quality windows.
	faultPeriod  = 600
	warmEpochs   = faultPeriod
	windowEpochs = 5 * faultPeriod
)

// referenceFaults is the reference composite fault program of
// gpsbench's -faults sweep (defaultFaultSpec in cmd/gpsbench/faults.go):
// a dropout, a RAIM-bait step, a diverging ramp, a multipath burst, a
// receiver clock jump, an occlusion below four satellites, a
// two-satellite spoof and a wideband jam, over one 600 s span.
const referenceFaults = "drop:prn=7,from=60,until=180;" +
	"step:prn=12,bias=350,from=120,until=240;" +
	"ramp:prn=5,rate=2,from=150,until=300;" +
	"burst:sigma=10,from=200,until=280;" +
	"clockjump:at=260,bias=2e-4;" +
	"shrink:n=3,from=320,until=380;" +
	"spoof:n=2,bias=300,from=400,until=480;" +
	"jam:sigma=15,from=500,until=560"

// tileFaults repeats prog every period seconds over [0, span), clipping
// each clause to its own period (the clock jump included), so every
// period carries the same fault mix.
func tileFaults(prog fault.Program, period, span float64) fault.Program {
	var out fault.Program
	for base := 0.0; base < span; base += period {
		for _, c := range prog {
			c.Until = math.Min(c.Until, period) + base
			c.From += base
			out = append(out, c)
		}
	}
	return out
}

func parseReference() (fault.Program, error) { return fault.ParseSpec(referenceFaults) }

// countingWriter is the in-memory journal sink: it keeps only a byte
// count. The journal writer serializes its writes.
type countingWriter struct{ n atomic.Int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return len(p), nil
}

// fixRec is the part of a FixEvent the replica must reproduce.
type fixRec struct {
	pos      geo.ECEF
	clock    float64
	solver   uint8
	excluded int8
	coast    bool
	err      bool
}

func recordOf(e *engine.FixEvent) fixRec {
	return fixRec{
		pos: e.Sol.Pos, clock: e.Sol.ClockBias,
		solver: journal.SolverIndex(e.Solver), excluded: int8(e.Excluded),
		coast: e.Coast, err: e.Err != nil,
	}
}

// sinkSpan is one sink call as seen from the shard goroutine that made
// it: the engine step ran from the previous span's end to start.
type sinkSpan struct {
	recv, epoch int32
	start, end  int64
}

// shardLog is one shard's sink-side state, touched only by that shard's
// goroutine while a run is in flight. The padding keeps two shards'
// hot fields off one cache line.
type shardLog struct {
	last       int64     // previous sink return
	step       []float64 // ms from the previous sink return to this call
	epoch      int       // epoch being stepped
	epochStart int64     // when the shard became free for it
	tail       []float64 // ms from epochStart to the shard's last session's sink call
	spans      []sinkSpan
	_          [64]byte
}

// replaySink is the replay workloads' FixSink. Every per-receiver slot
// is written only by the shard owning that receiver, and read after the
// run returns.
type replaySink struct {
	epochs, w0 int
	truth      []geo.ECEF
	counts     []uint8 // receiver*epochs + epoch
	errs       []bool
	posErr     []float64 // receiver*window + epoch−w0; NaN for errors
	digest     []uint64
	shards     [replayWorkers]shardLog
	traced     bool
	recs       []fixRec // receiver*epochs + epoch, traced runs only
}

func newReplaySink(receivers, epochs, w0 int, truth []geo.ECEF, traced bool) *replaySink {
	s := &replaySink{
		epochs: epochs, w0: w0, truth: truth,
		counts: make([]uint8, receivers*epochs),
		errs:   make([]bool, receivers*epochs),
		posErr: make([]float64, receivers*(epochs-w0)),
		digest: make([]uint64, receivers),
		traced: traced,
	}
	for i := range s.shards {
		s.shards[i].step = make([]float64, 0, receivers*(epochs-w0))
		s.shards[i].tail = make([]float64, 0, epochs-w0)
		if traced {
			s.shards[i].spans = make([]sinkSpan, 0, receivers*epochs)
		}
	}
	if traced {
		s.recs = make([]fixRec, receivers*epochs)
	}
	return s
}

// mark starts a new RunRange: the first step of each shard has no
// previous sink return to time from.
func (s *replaySink) mark() {
	for i := range s.shards {
		s.shards[i].last, s.shards[i].epoch = 0, -1
	}
}

func (s *replaySink) sink(e engine.FixEvent) {
	now := nanotime()
	sl := &s.shards[e.Shard]
	i := e.Receiver*s.epochs + e.Epoch
	s.counts[i]++
	h := s.digest[e.Receiver]
	if e.Err != nil {
		s.errs[i] = true
		h = mix(h, uint64(e.Epoch)|1<<63)
	} else {
		h = mix(mix(mix(mix(h, math.Float64bits(e.Sol.Pos.X)), math.Float64bits(e.Sol.Pos.Y)),
			math.Float64bits(e.Sol.Pos.Z)), math.Float64bits(e.Sol.ClockBias))
	}
	s.digest[e.Receiver] = h
	if e.Epoch >= s.w0 {
		pe := math.NaN()
		if e.Err == nil {
			pe = e.Sol.Pos.DistanceTo(s.truth[e.Receiver])
		}
		s.posErr[e.Receiver*(s.epochs-s.w0)+e.Epoch-s.w0] = pe
		if sl.last != 0 {
			sl.step = append(sl.step, float64(now-sl.last)/1e6)
		}
		// A replay epoch is due when its shard is free to start it.
		if e.Epoch != sl.epoch {
			sl.epoch, sl.epochStart = e.Epoch, sl.last
		}
		if sl.epochStart != 0 && e.Receiver+replayWorkers >= replayReceivers {
			sl.tail = append(sl.tail, float64(now-sl.epochStart)/1e6)
		}
	}
	if s.traced {
		s.recs[i] = recordOf(&e)
		sl.spans = append(sl.spans, sinkSpan{int32(e.Receiver), int32(e.Epoch), now, 0})
		sl.spans[len(sl.spans)-1].end = nanotime()
	}
	sl.last = nanotime()
}

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h ^ h>>29
}

// replayConfig is the engine configuration of a replay workload.
func replayConfig(seed, faultSeed int64, faulted bool, sink engine.FixSink, solver string) (engine.Config, error) {
	cfg := engine.Config{
		Receivers: replayReceivers,
		Workers:   replayWorkers,
		Solver:    solver,
		Seed:      seed,
		Sink:      sink,
		Registry:  telemetry.NewRegistry(),
	}
	if !faulted {
		return cfg, nil
	}
	prog, err := parseReference()
	if err != nil {
		return cfg, err
	}
	cfg.Faults = tileFaults(prog, faultPeriod, warmEpochs+windowEpochs)
	cfg.FaultSeed = faultSeed
	cfg.Weighting = true
	cfg.Disruption = true
	cfg.Quality = &engine.QualityConfig{}
	cfg.JournalSink = &countingWriter{}
	return cfg, nil
}

// replayRound is one set-up plus one timed window.
type replayRound struct {
	setup, window time.Duration
	setupCPU      time.Duration // process CPU time of the set-up
	windowCPU     time.Duration // process CPU time of the window
	stats         engine.Stats
	heapMB        float64
	allocs        uint64  // bytes allocated during the window
	gcs           uint32  // GC cycles during the window
	cacheHit      float64 // epoch-cache hit ratio over the round
}

// runRound builds a fresh engine, pregenerates the span, warms up on
// [0, W) and times [W, W+N). Epoch time never runs backwards.
func runRound(faulted bool, solver string, seed, faultSeed int64, sink *replaySink) (replayRound, error) {
	var rd replayRound
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	ctx := context.Background()
	start, cpu0 := time.Now(), cpuTime()
	cfg, err := replayConfig(seed, faultSeed, faulted, sink.sink, solver)
	if err != nil {
		return rd, err
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return rd, err
	}
	if err := eng.Pregenerate(warmEpochs + windowEpochs); err != nil {
		return rd, err
	}
	sink.mark()
	if err := eng.RunRange(ctx, 0, warmEpochs); err != nil {
		return rd, err
	}
	rd.setup, rd.setupCPU = time.Since(start), cpuTime()-cpu0
	sink.mark()
	// Start the window with no collection of set-up garbage pending, as
	// testing.B does before each benchmark.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC
	w0, cpu0 := time.Now(), cpuTime()
	if err := eng.RunRange(ctx, warmEpochs, warmEpochs+windowEpochs); err != nil {
		return rd, err
	}
	rd.window, rd.windowCPU = time.Since(w0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms)
	rd.allocs, rd.gcs = ms.TotalAlloc-alloc0, ms.NumGC-gc0
	rd.stats = eng.Stats()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rd.heapMB = float64(int64(ms.HeapAlloc)-int64(base)) / (1 << 20)
	rd.cacheHit = hitRatio(cfg.Registry)
	runtime.KeepAlive(eng)
	return rd, nil
}

func stationTruth(n int) []geo.ECEF {
	st := scenario.Table51Stations()
	out := make([]geo.ECEF, n)
	for r := range out {
		out[r] = st[r%len(st)].Pos
	}
	return out
}

// checkRound applies the replay output checks to one round and returns
// its ledger over the timed window.
func checkRound(res *result, faulted bool, rd replayRound, sink *replaySink, digest0 []uint64) Ledger {
	st := rd.stats
	res.check(st.BatchesConserved(), "batches not conserved: %+v", st)
	res.check(st.EpochErrors == 0, "%d epoch errors", st.EpochErrors)
	if !faulted {
		res.check(st.SolveFailures == 0, "%d solve failures on clean epochs", st.SolveFailures)
	}
	var l Ledger
	bad := 0
	for r := 0; r < replayReceivers; r++ {
		for ep := 0; ep < sink.epochs; ep++ {
			i := r*sink.epochs + ep
			if n := sink.counts[i]; n != 1 {
				bad++
			}
			if ep >= sink.w0 {
				l.Add(engineOutcome(int(sink.counts[i]), sink.errs[i], false))
			}
		}
	}
	res.check(bad == 0, "%d session-epochs not emitted exactly once", bad)
	if digest0 != nil {
		for r := range digest0 {
			if sink.digest[r] != digest0[r] {
				res.check(false, "receiver %d fixes differ between rounds of the same seed", r)
				break
			}
		}
	}
	return l
}

func (s *replaySink) reset() {
	clear(s.counts)
	clear(s.errs)
	clear(s.digest)
	for i := range s.posErr {
		s.posErr[i] = math.NaN()
	}
	for i := range s.shards {
		s.shards[i].step = s.shards[i].step[:0]
		s.shards[i].tail = s.shards[i].tail[:0]
		s.shards[i].spans = s.shards[i].spans[:0]
	}
}

// subSeeds is how many input sets a replay run cycles through: round r
// runs on the inputs of sub-seed r mod subSeeds, each derived from
// --seed. Pooling several realizations keeps the accuracy and
// throughput medians from resting on one draw of the noise.
const subSeeds = 8

// roundSeeds derives sub-seed k's scenario and fault seeds.
func roundSeeds(o options, k int) (seed, faultSeed int64) {
	const golden = 0x9E3779B97F4A7C15
	return int64(rng.Mix64(uint64(o.seed) + uint64(k)*golden)),
		int64(rng.Mix64(uint64(o.faultSeed) + uint64(k)*golden))
}

// roundOut is what one round contributes to the medians.
type roundOut struct {
	k                int
	fps, fpsCPU      float64 // fixes per wall second; per CPU-second
	step50           float64 // service time per fix, ms
	lat50, lat99     float64 // epoch due → the shard's last sink call, ms
	setup, setupWall float64 // set-up CPU seconds; wall seconds
	heap             float64 // MB
	allocPerFix, gcs float64
	cacheHit         float64
}

// runReplay runs rounds until --seconds have passed (at least one per
// sub-seed, two with --trace 1) and reports medians over rounds.
func runReplay(o options, faulted bool) (*result, error) {
	res := &result{}
	epochs := warmEpochs + windowEpochs
	truth := stationTruth(replayReceivers)
	plain := newReplaySink(replayReceivers, epochs, warmEpochs, truth, false)
	var traced *replaySink
	need := subSeeds
	if o.traced {
		traced = newReplaySink(replayReceivers, epochs, warmEpochs, truth, true)
		need = 2 * subSeeds
	}
	digests := make([][]uint64, subSeeds)
	var posErr []float64
	var untraced, tracedRounds []roundOut
	tracedK := -1
	start := time.Now()
	for round := 0; round < need || time.Since(start) < o.seconds; round++ {
		k := round % subSeeds
		sink := plain
		if o.traced && (round/subSeeds)%2 == 1 {
			sink = traced
			tracedK = k
		}
		sink.reset()
		seed, fseed := roundSeeds(o, k)
		rd, err := runRound(faulted, "", seed, fseed, sink)
		if err != nil {
			return nil, err
		}
		res.ledger.Merge(checkRound(res, faulted, rd, sink, digests[k]))
		if len(res.failed) > 0 {
			return res, nil
		}
		if digests[k] == nil {
			digests[k] = append([]uint64(nil), sink.digest...)
			posErr = append(posErr, validErrors(sink.posErr)...)
		}
		out := rd.summarize(k, sink)
		if sink.traced {
			tracedRounds = append(tracedRounds, out)
		} else {
			untraced = append(untraced, out)
		}
	}
	fmt.Fprintf(o.log, "perfbench: %s: %d rounds in %v\n", o.workload, len(untraced)+len(tracedRounds), time.Since(start).Round(time.Millisecond))
	if o.traced {
		return res, replayLayers(o, faulted, res, traced, tracedK, untraced, tracedRounds)
	}
	rounds := fmt.Sprintf("median of %d rounds", len(untraced))
	col := func(f func(roundOut) float64) float64 {
		v := make([]float64, len(untraced))
		for i, r := range untraced {
			v[i] = f(r)
		}
		return Summarize(v).Median
	}
	res.add("fixes_per_cpu_s", "1/s", col(func(r roundOut) float64 { return r.fpsCPU }),
		fmt.Sprintf("%s of %d fixes each, per CPU-second of the process", rounds, replayReceivers*windowEpochs))
	res.add("fixes_per_s", "1/s", col(func(r roundOut) float64 { return r.fps }), rounds+", per wall second")
	// Replay epochs are pregenerated and waiting, so an epoch is due as
	// soon as its shard is free to start it, and its fixes are out when
	// the shard's last session (the counterpart of serve-wire's session
	// 255) reaches the sink. Per-session latencies are not used: with
	// four sessions per shard their median falls between the second and
	// third session's cluster and jumps between runs. The sink is the
	// consumer, with no network hop or proxy, so delivery is the same.
	lat50 := col(func(r roundOut) float64 { return r.lat50 })
	lat99 := col(func(r roundOut) float64 { return r.lat99 })
	detail := fmt.Sprintf("%s of %d epochs each; shard free → its last session's sink", rounds, replayWorkers*windowEpochs)
	for _, name := range []string{"fix_latency_ms", "deliver_ms", "deliver_proxy_ms"} {
		res.add(name+"_p50", "ms", lat50, detail)
		res.add(name+"_p99", "ms", lat99, rounds)
	}
	res.add("served_fix_pct", "%", 100-res.ledger.MissedPct(), res.ledger.String())
	pe := Summarize(posErr)
	pooled := fmt.Sprintf("n=%d fixes over %d sub-seeds", pe.N, subSeeds)
	res.add("pos_err_m_p50", "m", pe.Median, pooled)
	res.add("pos_err_m_p95", "m", quantile(posErr, 950), pooled)
	res.add("setup_s", "s", col(func(r roundOut) float64 { return r.setup }), rounds+"; CPU time of engine build, pregeneration, warm-up")
	res.add("setup_wall_s", "s", col(func(r roundOut) float64 { return r.setupWall }), rounds)
	res.add("heap_mb", "MB", col(func(r roundOut) float64 { return r.heap }), rounds+"; after GC, over the pre-build heap")
	res.add("missed_fix_pct", "%", res.ledger.MissedPct(), "100 − served_fix_pct")
	return res, nil
}

// summarize reduces a finished round and its sink to the round's
// contribution.
func (rd replayRound) summarize(k int, sink *replaySink) roundOut {
	var step, tail []float64
	for i := range sink.shards {
		step = append(step, sink.shards[i].step...)
		tail = append(tail, sink.shards[i].tail...)
	}
	served := float64(len(validErrors(sink.posErr)))
	return roundOut{
		k: k, fps: served / rd.window.Seconds(), fpsCPU: served / rd.windowCPU.Seconds(),
		step50: Summarize(step).Median,
		lat50:  Summarize(tail).Median, lat99: quantile(tail, 990),
		setup: rd.setupCPU.Seconds(), setupWall: rd.setup.Seconds(), heap: rd.heapMB,
		allocPerFix: float64(rd.allocs) / served, gcs: float64(rd.gcs),
		cacheHit: rd.cacheHit,
	}
}

// validErrors is the window's position errors without the NaN of
// error and absent events: one per served fix.
func validErrors(pe []float64) []float64 {
	out := make([]float64, 0, len(pe))
	for _, v := range pe {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// hitRatio reads the engine's epoch-cache counters from its registry.
func hitRatio(reg *telemetry.Registry) float64 {
	hits := reg.Counter("epoch_cache_hits_total", "").Value()
	misses := reg.Counter("epoch_cache_misses_total", "").Value()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// cpuTime is the CPU time the process has used, all threads. Host
// steal and other tenants do not add to it, which wall time on a shared
// VM does: throughput and set-up are gated on it for that reason.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
