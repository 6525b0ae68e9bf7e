package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpsdl/internal/cluster"
	"gpsdl/internal/engine"
	"gpsdl/internal/geo"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// serve-wire workload shape.
const (
	serveSessions = 256
	// serveWorkers is one shard, not two: with two, the subscribed
	// session's latency flips between runs by whether the second vCPU
	// wakes in time to run the other shard in parallel (a run-level
	// mode: deliver p50 5.4 or 8.4 ms for one seed on a 2-vCPU VM), too
	// unsteady to gate on. One shard keeps the critical path on one
	// core; the wire, proxy, clients and GC use the other.
	serveWorkers = 1
	tickRate     = 50 // ticks per second: 256 sessions → 12.8k fixes/s offered
	tick         = time.Second / tickRate
	// keyframeEvery is gpsserve's -checkpoint-every default: with -wire
	// the checkpoint cadence and the hub's keyframe block are equal.
	keyframeEvery = 100
	// subscribed is the session both clients follow: receiver 255 is
	// stepped last on its shard, so its fix waits for every other
	// session of the shard.
	subscribed = serveSessions - 1
	// serveWarm is the measured window's first epoch: set-up must be done
	// well before it, and fixing it makes the window's epochs, and so
	// pos_err, repeat exactly for a seed.
	serveWarm = 100
	// maxSetupTicks bounds how long one bring-up may take.
	maxSetupTicks = serveWarm / 2
	setupRepeats  = 15
	// minClientSamples is the fewest post-warm-up fixes each client
	// must decode for a supported p99.
	minClientSamples = 1000
	// proxyPoll and proxyProbe are gpsproxy's discovery/checkpoint poll
	// and health-probe periods (1 s and 500 ms by default), nudged off
	// whole multiples of the 20 ms tick: a period of exactly 50 ticks
	// hits the same phase of every tick for a whole run, so whether the
	// checkpoint poll lands on the engine's busy part of the tick would
	// be decided once per run and flip the p99s between runs.
	proxyPoll  = 1013 * time.Millisecond
	proxyProbe = 509 * time.Millisecond
	// traceBlock is the traced run's on/off block in epochs: tracing
	// alternates per block so the overhead is measured within one run.
	traceBlock = tickRate
)

// replayedSessions are the serve-wire sessions the traced run's replica
// re-steps: the subscribed session, its neighbours and the first ones.
var replayedSessions = []int{0, 1, 127, 128, 254, subscribed}

// delivery is one fix a client decoded.
type delivery struct {
	fix wire.Fix
	at  int64 // nanotime when the benchmark received it
}

// collector drains one client.
type collector struct {
	c    *wire.Client
	got  []delivery
	done chan struct{}
}

func collect(c *wire.Client, capacity int) *collector {
	col := &collector{c: c, got: make([]delivery, 0, capacity), done: make(chan struct{})}
	go func() {
		defer close(col.done)
		for f := range c.Fixes() {
			col.got = append(col.got, delivery{f, nanotime()})
		}
	}()
	return col
}

// stop closes the client and waits for the drain goroutine.
func (col *collector) stop() {
	col.c.Close()
	<-col.done
}

// serveSink is the serve-wire FixSink: it stamps each event, publishes
// it to the node exactly as gpsserve's sink does, and records what the
// checks and metrics need. Per-session slots are written only by the
// owning shard; per-shard slots only by that shard.
type serveSink struct {
	node    *cluster.Node
	start   int64 // nanotime the schedule's tick 0 was due
	epochs  int
	traced  bool
	truth   []geo.ECEF
	counts  []uint8   // session*epochs + epoch
	errs    []bool    // session*epochs + epoch
	at      []int64   // sink entry, ns after start
	posErr  []float64 // NaN for errors and absent events
	expect  []wire.Fix
	first   [serveWorkers][]int64 // per shard and epoch: first sink entry
	lastEnd [serveWorkers][]int64 // per shard and epoch: last sink return
	publish [serveWorkers][]float64
	steps   [serveWorkers][]float64
	prevEnd [serveWorkers]int64
	prevEp  [serveWorkers]int
	spans   [serveWorkers][]serveSpan
	recs    [][]fixRec // replayed session slot → epoch
	slotOf  []int      // session → replayed slot, −1 when not replayed
}

// serveSpan is one sink call in a traced epoch: entry, the start of
// Node.Publish, and return, in ns after the schedule's start.
type serveSpan struct {
	recv, epoch     int32
	enter, pub, end int64
}

func newServeSink(epochs int, traced bool) *serveSink {
	n := serveSessions * epochs
	s := &serveSink{
		epochs: epochs, traced: traced, truth: stationTruth(serveSessions),
		counts: make([]uint8, n), errs: make([]bool, n), at: make([]int64, n),
		posErr: make([]float64, n), expect: make([]wire.Fix, epochs),
		slotOf: make([]int, serveSessions),
	}
	for i := range s.slotOf {
		s.slotOf[i] = -1
	}
	for i := range s.posErr {
		s.posErr[i] = math.NaN()
	}
	for sh := 0; sh < serveWorkers; sh++ {
		s.first[sh] = make([]int64, epochs)
		s.lastEnd[sh] = make([]int64, epochs)
		s.prevEp[sh] = -1
	}
	if traced {
		for i, id := range replayedSessions {
			s.slotOf[id] = i
			s.recs = append(s.recs, make([]fixRec, epochs))
		}
	}
	return s
}

// tracedEpoch reports whether epoch i falls in a traced block.
func (s *serveSink) tracedEpoch(i int) bool { return s.traced && (i/traceBlock)%2 == 1 }

func (s *serveSink) sink(e engine.FixEvent) {
	now := nanotime() - s.start
	if e.Epoch >= s.epochs {
		// Past the recorded span (the schedule overran); still serve it.
		s.node.Publish(e)
		return
	}
	i := e.Receiver*s.epochs + e.Epoch
	s.counts[i]++
	s.at[i] = now
	sh := e.Shard
	if s.first[sh][e.Epoch] == 0 {
		s.first[sh][e.Epoch] = now
	}
	if e.Err != nil {
		s.errs[i] = true
	} else {
		s.posErr[i] = e.Sol.Pos.DistanceTo(s.truth[e.Receiver])
	}
	if e.Receiver == subscribed {
		s.expect[e.Epoch] = e.Wire()
	}
	if s.traced && s.slotOf[e.Receiver] >= 0 {
		s.recs[s.slotOf[e.Receiver]][e.Epoch] = recordOf(&e)
	}
	tr := s.tracedEpoch(e.Epoch)
	if tr && s.prevEp[sh] == e.Epoch {
		s.steps[sh] = append(s.steps[sh], float64(now-s.prevEnd[sh]))
	}
	p0 := nanotime()
	s.node.Publish(e)
	end := nanotime()
	if tr {
		s.publish[sh] = append(s.publish[sh], float64(end-p0))
		s.spans[sh] = append(s.spans[sh], serveSpan{int32(e.Receiver), int32(e.Epoch), now, p0 - s.start, end - s.start})
	}
	s.lastEnd[sh][e.Epoch] = end - s.start
	s.prevEnd[sh], s.prevEp[sh] = end-s.start, e.Epoch
}

// due is epoch i's scheduled due time, ns after start.
func due(i int) int64 { return int64(i) * int64(tick) }

// stack is one brought-up serving tier: engine, node, wire server,
// admin mux, proxy and the two clients.
type stack struct {
	cancel   context.CancelFunc
	eng      *engine.Engine
	node     *cluster.Node
	reg      *telemetry.Registry
	proxyReg *telemetry.Registry
	sink     *serveSink
	direct   *collector
	proxied  *collector
	stopAt   atomic.Int64 // schedule stops before this tick
	ticked   atomic.Int64 // ticks sent so far
	lag      []float64    // per tick: send − due, ms
	runErr   chan error
	wg       sync.WaitGroup
	admin    *http.Server
	setup    time.Duration
	setupCPU time.Duration
	baseHeap uint64
	m0, m1   runtime.MemStats // at the window's first and last tick
	cpu0     time.Duration    // process CPU time at the window's first tick
	cpu1     time.Duration    // and at its last
}

// bringUp starts a full serving tier and returns once both clients
// hold their first fix.
func bringUp(o options, epochs int, traced bool) (*stack, error) {
	st := &stack{runErr: make(chan error, 1), lag: make([]float64, epochs)}
	st.sink = newServeSink(epochs, traced)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.baseHeap = ms.HeapAlloc
	st.stopAt.Store(int64(epochs))
	began, cpuBegan := time.Now(), cpuTime()
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	st.reg = telemetry.NewRegistry()
	cfg := engine.Config{
		Receivers:       serveSessions,
		Workers:         serveWorkers,
		Seed:            o.seed,
		Registry:        st.reg,
		CheckpointEvery: keyframeEvery,
		Quality:         &engine.QualityConfig{Window: 600},
		Sink:            st.sink.sink,
	}
	eng, err := engine.New(cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	st.eng = eng
	st.proxyReg = telemetry.NewRegistry()
	st.node = cluster.NewNode(ctx, cluster.NodeConfig{
		Base: cfg, Rate: tickRate, Registry: st.reg,
		Hub: wire.HubConfig{KeyframeEvery: keyframeEvery},
	})
	st.sink.node = st.node
	st.node.Track(eng)
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	wln, err := listen()
	if err != nil {
		cancel()
		return nil, err
	}
	aln, err := listen()
	if err != nil {
		wln.Close()
		cancel()
		return nil, err
	}
	pln, err := listen()
	if err != nil {
		wln.Close()
		aln.Close()
		cancel()
		return nil, err
	}
	mux := http.NewServeMux()
	st.node.Routes(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	st.admin = &http.Server{Handler: mux}
	proxy, err := cluster.NewProxy(cluster.ProxyConfig{
		Nodes:        map[string]cluster.NodeAddr{"a": {Wire: wln.Addr().String(), Admin: "http://" + aln.Addr().String()}},
		PollInterval: proxyPoll,
		Health:       cluster.HealthConfig{Interval: proxyProbe},
		Registry:     st.proxyReg,
	})
	if err != nil {
		wln.Close()
		aln.Close()
		pln.Close()
		cancel()
		return nil, err
	}
	ws := &wire.Server{Hub: st.node.Hub}
	st.goroutine(func() { _ = ws.Serve(ctx, wln) })
	st.goroutine(func() { _ = st.admin.Serve(aln) })
	st.goroutine(func() { proxy.Run(ctx) })
	st.goroutine(func() { _ = proxy.ServeWire(ctx, pln) })

	ticks := make(chan time.Time)
	st.sink.start = nanotime()
	st.goroutine(func() { st.schedule(ctx, ticks) })
	st.goroutine(func() { st.runErr <- eng.RunPaced(ctx, ticks) })
	// Dial once the proxy has discovered the session: a subscriber
	// that arrives first is sent into the proxy's jittered retry
	// backoff, a random wait that would dominate the set-up time.
	for deadline := time.Now().Add(2 * time.Second); proxy.Owners()[subscribed] == ""; {
		if time.Now().After(deadline) {
			cancel()
			_ = st.admin.Close()
			st.wg.Wait()
			return nil, fmt.Errorf("proxy did not discover session %d", subscribed)
		}
		time.Sleep(time.Millisecond)
	}
	st.direct = collect(wire.DialSession(ctx, wire.ClientConfig{Addr: wln.Addr().String(), Session: subscribed, Resume: -1}), epochs)
	st.proxied = collect(wire.DialSession(ctx, wire.ClientConfig{Addr: pln.Addr().String(), Session: subscribed, Resume: -1}), epochs)
	for !st.direct.hasFix() || !st.proxied.hasFix() {
		if st.ticked.Load() >= maxSetupTicks {
			st.tearDown()
			return nil, fmt.Errorf("clients hold no fix after %d ticks", maxSetupTicks)
		}
		time.Sleep(time.Millisecond)
	}
	st.setup, st.setupCPU = time.Since(began), cpuTime()-cpuBegan
	return st, nil
}

func (st *stack) goroutine(f func()) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		f()
	}()
}

// hasFix reports whether the client has delivered anything yet.
func (col *collector) hasFix() bool { return col.c.LastDelivered() >= 0 }

// schedule is the open-loop tick source: tick k is due at start+k·tick
// whatever the engine is doing; how late each send ran is recorded.
func (st *stack) schedule(ctx context.Context, ticks chan<- time.Time) {
	defer close(ticks)
	for k := 0; int64(k) < st.stopAt.Load(); k++ {
		d := st.sink.start + due(k)
		if wait := time.Duration(d - nanotime()); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return
			}
		}
		sent := nanotime()
		if k < len(st.lag) {
			st.lag[k] = float64(sent-d) / 1e6
		}
		select {
		case ticks <- time.Now():
		case <-ctx.Done():
			return
		}
		st.ticked.Store(int64(k + 1))
	}
}

// await returns once tick k has been sent. It sleeps through the wait
// instead of polling, so the benchmark wakes no CPU during the window.
func (st *stack) await(k int) {
	time.Sleep(time.Duration(st.sink.start + due(k) - nanotime()))
	for st.ticked.Load() < int64(k) {
		time.Sleep(time.Millisecond)
	}
}

// finish stops the schedule after tick end−1, waits for the engine to
// drain and for both clients to decode through the last published
// epoch, then tears the tier down. It returns the engine's run error.
func (st *stack) finish(end int) error {
	st.stopAt.Store(int64(end))
	err := <-st.runErr
	last := int64(-1)
	for ep := end - 1; ep >= 0; ep-- {
		if st.sink.counts[subscribed*st.sink.epochs+ep] > 0 {
			last = int64(ep)
			break
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for (st.direct.c.LastDelivered() < last || st.proxied.c.LastDelivered() < last) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st.tearDown()
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// tearDown stops every goroutine the stack started and waits for them.
func (st *stack) tearDown() {
	st.cancel()
	st.direct.stop()
	st.proxied.stop()
	st.node.Hub.Shutdown()
	_ = st.admin.Close()
	st.wg.Wait()
}

// runServe brings the tier up setupRepeats times (the set-up metric is
// their median), keeps the last one running through serveWarm ticks of
// warm-up and --seconds of measured window, and checks every stream.
func runServe(o options) (*result, error) {
	n := int(o.seconds / tick)
	var setups, walls []float64
	var st *stack
	for k := 0; k < setupRepeats; k++ {
		s, err := bringUp(o, serveWarm+n, o.traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setupCPU.Seconds())
		walls = append(walls, s.setup.Seconds())
		if k < setupRepeats-1 {
			if err := s.finish(int(s.ticked.Load())); err != nil {
				return nil, err
			}
			continue
		}
		st = s
	}
	e0, e1 := serveWarm, serveWarm+n
	// Wait out the window, then read memory before tearing down.
	st.await(e0)
	st.cpu0 = cpuTime()
	runtime.ReadMemStats(&st.m0)
	st.await(e1)
	st.cpu1 = cpuTime()
	runtime.ReadMemStats(&st.m1)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(int64(ms.HeapAlloc)-int64(st.baseHeap)) / (1 << 20)
	if err := st.finish(e1); err != nil {
		return nil, err
	}
	res := &result{}
	sv := serveCheck(res, st, e0, e1)
	if len(res.failed) > 0 {
		return res, nil
	}
	if o.traced {
		return res, serveLayers(o, res, st, e0, e1)
	}
	res.add("fixes_per_cpu_s", "1/s", float64(res.ledger[Served])/(st.cpu1-st.cpu0).Seconds(),
		fmt.Sprintf("served session-epochs per CPU-second of the whole tier (%.3f s over the window)", (st.cpu1-st.cpu0).Seconds()))
	res.add("fixes_per_s", "1/s", sv.fixesPerS, fmt.Sprintf("%d session-epochs served over %.3f s", res.ledger[Served], sv.windowS))
	res.addTiming("fix_latency_ms_p50", "ms", sv.fixLat)
	res.add("fix_latency_ms_p99", "ms", sv.fixLat99, "due → sink, all sessions")
	res.addTiming("deliver_ms_p50", "ms", sv.direct)
	res.add("deliver_ms_p99", "ms", sv.direct99, "due → direct client decode")
	res.addTiming("deliver_proxy_ms_p50", "ms", sv.proxied)
	res.add("deliver_proxy_ms_p99", "ms", sv.proxied99, "due → proxied client decode")
	res.add("served_fix_pct", "%", 100-res.ledger.MissedPct(), res.ledger.String())
	pe := Summarize(sv.posErr)
	res.add("pos_err_m_p50", "m", pe.Median, fmt.Sprintf("n=%d fixes", pe.N))
	res.add("pos_err_m_p95", "m", quantile(sv.posErr, 950), fmt.Sprintf("n=%d fixes", pe.N))
	res.add("setup_s", "s", Summarize(setups).Median, fmt.Sprintf("CPU time, median of %d bring-ups until both clients hold a fix", len(setups)))
	res.add("setup_wall_s", "s", Summarize(walls).Median, fmt.Sprintf("median of %d bring-ups", len(walls)))
	res.add("heap_mb", "MB", heapMB, "after GC, over the pre-build heap")
	res.add("missed_fix_pct", "%", res.ledger.MissedPct(), "100 − served_fix_pct")
	return res, nil
}

// serveSummary is what serveCheck measured over the window.
type serveSummary struct {
	fixesPerS, windowS            float64
	fixLat, direct, proxied       Summary
	fixLat99, direct99, proxied99 float64
	posErr                        []float64
}

// quantize is the wire's millimetre quantization of one value.
func quantize(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Max(-(1<<40), math.Min(1<<40, math.Round(v*1000))) / 1000
}

// onWire is f as a decoder reconstructs it.
func onWire(f wire.Fix) wire.Fix {
	if f.Miss {
		return wire.Fix{Session: f.Session, Epoch: f.Epoch, State: f.State, Solver: f.Solver, Sats: f.Sats, Miss: true}
	}
	f.X, f.Y, f.Z = quantize(f.X), quantize(f.Y), quantize(f.Z)
	f.ClockBias, f.HDOP = quantize(f.ClockBias), quantize(f.HDOP)
	return f
}

// serveCheck runs the serve-wire output checks, fills the ledger and
// returns the window's measurements.
func serveCheck(res *result, st *stack, e0, e1 int) serveSummary {
	s := st.sink
	es := st.eng.Stats()
	res.check(es.BatchesConserved(), "batches not conserved: %+v", es)
	res.check(es.EpochErrors == 0, "%d epoch errors", es.EpochErrors)
	res.check(st.node.Hub.Stats().Evicted == 0, "%d wire subscribers evicted", st.node.Hub.Stats().Evicted)
	var sv serveSummary
	var lat []float64
	lastAt := int64(0)
	for r := 0; r < serveSessions; r++ {
		for ep := e0; ep < e1; ep++ {
			i := r*s.epochs + ep
			o := engineOutcome(int(s.counts[i]), s.errs[i], true)
			res.ledger.Add(o)
			if o != Served {
				continue
			}
			lat = append(lat, float64(s.at[i]-due(ep))/1e6)
			sv.posErr = append(sv.posErr, s.posErr[i])
			lastAt = max(lastAt, s.at[i])
		}
	}
	sv.windowS = float64(lastAt-due(e0)) / 1e9
	sv.fixesPerS = float64(res.ledger[Served]) / sv.windowS
	sv.fixLat = Summarize(lat)
	sv.fixLat99 = quantile(lat, 990)
	streams := [2]*collector{st.direct, st.proxied}
	names := [2]string{"direct", "proxied"}
	var got [2]map[uint64]delivery
	for k, col := range streams {
		got[k] = map[uint64]delivery{}
		prev := int64(-1)
		for _, d := range col.got {
			ep := int64(d.fix.Epoch)
			res.check(ep > prev, "%s client: epoch %d after %d", names[k], ep, prev)
			prev = ep
			if _, dup := got[k][d.fix.Epoch]; dup {
				continue
			}
			got[k][d.fix.Epoch] = d
			if int(ep) < s.epochs && s.counts[subscribed*s.epochs+int(ep)] == 1 {
				want := onWire(s.expect[ep])
				res.check(d.fix == want, "%s client: epoch %d decoded %+v, engine published %+v", names[k], ep, d.fix, want)
			}
		}
		var dl []float64
		samples := 0
		for ep := e0; ep < e1; ep++ {
			published := s.counts[subscribed*s.epochs+ep] == 1
			d, ok := got[k][uint64(ep)]
			res.check(ok || !published, "%s client: published epoch %d never decoded", names[k], ep)
			n := 0
			if ok {
				n = 1
				samples++
				dl = append(dl, float64(d.at-s.start-due(ep))/1e6)
			}
			res.ledger.Add(deliveryOutcome(n, ok && d.fix.Miss, time.Duration(d.at-s.start-due(ep)), tick))
		}
		res.check(samples >= minClientSamples, "%s client decoded %d window fixes, p99 needs %d (raise --seconds)", names[k], samples, minClientSamples)
		if len(dl) == 0 {
			continue
		}
		sum, p99 := Summarize(dl), quantile(dl, 990)
		if k == 0 {
			sv.direct, sv.direct99 = sum, p99
		} else {
			sv.proxied, sv.proxied99 = sum, p99
		}
	}
	for ep, d := range got[0] {
		if p, ok := got[1][ep]; ok {
			res.check(p.fix == d.fix, "epoch %d: proxied fix %+v differs from direct %+v", ep, p.fix, d.fix)
		}
	}
	return sv
}
