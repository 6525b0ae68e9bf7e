package main

import (
	"fmt"

	"gpsdl/internal/wire"
)

// replicaPairs is how many untraced-then-traced replica runs the
// tracing cost is measured over.
const replicaPairs = 3

// runReplicas re-steps the engine's sessions in fresh replicas built
// from rc, alternating span recording off and on, and checks every
// replicated fix, traced or not, against the engine's (want). The
// tracing cost it reports, trace.overhead_pct, is the median extra
// process CPU time of a traced run over the untraced run before it.
// It returns the last traced replica.
func runReplicas(res *result, rc replicaConfig, end int, stepped func(recv, epoch int) bool,
	want func(recv, epoch int) fixRec, what string) (*replica, error) {
	var traced *replica
	var off float64
	var extra []float64
	mismatches, compared := 0, 0
	for i := 0; i < 2*replicaPairs; i++ {
		rp, err := newReplica(rc, i%2 == 1)
		if err != nil {
			return nil, err
		}
		c0 := cpuTime()
		err = rp.run(end, stepped, func(recv, ep int, rec fixRec) {
			compared++
			if w := want(recv, ep); !sameFix(rec, w) {
				if mismatches == 0 {
					res.check(false, "replica diverges at %s %d epoch %d: replica %+v, engine %+v", what, recv, ep, rec, w)
				}
				mismatches++
			}
		})
		cpu := (cpuTime() - c0).Seconds()
		if err != nil {
			return nil, err
		}
		if rp.tr == nil {
			off = cpu
		} else {
			extra = append(extra, 100*(cpu-off)/off)
			traced = rp
		}
	}
	runs := 2 * replicaPairs
	res.check(mismatches == 0, "replicas reproduced %d of %d engine fixes", compared-mismatches, compared)
	res.add("replica.fixes_compared", "count", float64(compared/runs),
		fmt.Sprintf("per run; %d runs, traced and untraced, bit-identical to the engine's", runs))
	res.add("trace.overhead_pct", "%", Summarize(extra).Median,
		fmt.Sprintf("replica CPU time, spans recorded vs not; median of %d pairs", len(extra)))
	return traced, nil
}

// stageSums returns, per stage, the summed span duration (ns) of each
// span id in recording order: a stage that runs twice for one
// session-epoch counts once, with both durations.
func stageSums(t *tracer) [numStages][]float64 {
	var out [numStages][]float64
	var cur [numStages]struct {
		id  uint32
		sum float64
		ok  bool
	}
	for _, s := range t.spans {
		c := &cur[s.stage]
		if c.ok && c.id != s.id {
			out[s.stage] = append(out[s.stage], c.sum)
			c.sum = 0
		}
		c.id, c.ok = s.id, true
		c.sum += float64(s.end - s.start)
	}
	for st := range cur {
		if cur[st].ok {
			out[st] = append(out[st], cur[st].sum)
		}
	}
	return out
}

// replicaLayers adds the per-layer metrics the replica measured. stepNs
// is the engine's own per-fix step time, the base of the solve share.
func replicaLayers(res *result, rp *replica, stepNs float64) {
	sums := stageSums(rp.tr)
	timing := func(name string, st int) float64 {
		s := Summarize(sums[st])
		res.addTiming(name, "ns", s)
		return s.Median
	}
	emitted := float64(rp.fixes + rp.coasts)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	timing("scenario.epoch_at_ns", stEpochAt)
	res.add("scenario.sats_per_epoch", "count", ratio(float64(rp.sats), float64(rp.steps)), fmt.Sprintf("%d session-epochs", rp.steps))
	timing("epochcache.at_ns", stCacheAt)
	if rp.cfg.faults != nil {
		timing("fault.apply_ns", stFault)
		res.add("fault.events_per_epoch", "count", ratio(float64(rp.faultEvents), float64(rp.steps)), "")
	}
	timing("clock.observe_ns", stObserve)
	if len(sums[stPredict]) > 0 {
		timing("clock.predict_ns", stPredict)
	}
	if rp.cfg.disruption {
		timing("core.disrupt_ns", stDisrupt)
	}
	nr := timing("core.nr_feed_ns", stNRFeed)
	chain := timing("core.chain_ns", stChain)
	timing("core.dop_ns", stDOP)
	if len(sums[stAssess]) > 0 {
		timing("core.assess_ns", stAssess)
	}
	res.add("core.chain_attempts_per_fix", "ratio", ratio(float64(rp.attempts), emitted), fmt.Sprintf("%d solver calls / %.0f emitted fixes", rp.attempts, emitted))
	res.add("core.fallback_ratio", "ratio", ratio(float64(rp.fallback.Fallbacks.Value()), float64(rp.fixes)), "fixes from a non-primary chain member")
	res.add("core.raim_exclusions", "count", float64(rp.raim.Exclusions.Value()), fmt.Sprintf("over %d session-epochs", rp.steps))
	res.add("core.coast_ratio", "ratio", ratio(float64(rp.coasts), emitted), "")
	res.add("core.solve_share_pct", "%", 100*ratio(chain, stepNs), "core.chain_ns / engine.step_ns")
	res.add("core.theta_solve_pct", "%", 100*ratio(chain, nr), "core.chain_ns / core.nr_feed_ns on the same observations")
	if rp.cfg.quality {
		timing("quality.observe_ns", stQuality)
		timing("slo.observe_ns", stSLO)
	}
	if rp.jw != nil {
		timing("journal.encode_ns", stJournalEncode)
		_, records, _ := rp.jw.Stats()
		bytes := rp.jsink.n.Load()
		var write float64
		for _, d := range sums[stJournalWrite] {
			write += d
		}
		res.add("journal.write_ns", "ns", ratio(write, float64(records)), fmt.Sprintf("batch writes over %d records", records))
		res.add("journal.bytes_per_fix", "B", ratio(float64(bytes), float64(records)), "")
	}
	timing("nmea.encode_ns", stNMEA)
	res.add("nmea.bytes_per_fix", "B", ratio(float64(rp.nmeaBytes), emitted), "GGA + RMC")
}

// replayLayers is the traced replay run: engine-level numbers from the
// rounds, an NR-primary round for the engine θ, and the replica over
// the last traced round's inputs, which must reproduce its fixes.
func replayLayers(o options, faulted bool, res *result, traced *replaySink, k int,
	untraced, tracedRounds []roundOut) error {
	col := func(rs []roundOut, f func(roundOut) float64) float64 {
		v := make([]float64, 0, len(rs))
		for _, r := range rs {
			v = append(v, f(r))
		}
		return Summarize(v).Median
	}
	stepNs := 1e6 * col(untraced, func(r roundOut) float64 { return r.step50 })
	res.add("engine.step_ns", "ns", stepNs, fmt.Sprintf("median of %d rounds' median shard-free → sink time", len(untraced)))
	res.add("engine.alloc_b_per_fix", "B", col(untraced, func(r roundOut) float64 { return r.allocPerFix }), "window allocations / fixes")
	res.add("engine.gc_cycles", "count", col(untraced, func(r roundOut) float64 { return r.gcs }), "per timed window")
	res.add("epochcache.hit_ratio", "ratio", col(untraced, func(r roundOut) float64 { return r.cacheHit }), "engine registry, pregeneration")
	fpsU := col(untraced, func(r roundOut) float64 { return r.fpsCPU })
	fpsT := col(tracedRounds, func(r roundOut) float64 { return r.fpsCPU })
	res.add("trace.sink_overhead_pct", "%", 100*(fpsU-fpsT)/fpsU,
		fmt.Sprintf("fixes per CPU-second untraced %.0f vs traced %.0f, %d+%d rounds", fpsU, fpsT, len(untraced), len(tracedRounds)))

	// The engine-level θ: DLG-primary over NR-primary step time on the
	// same sub-seed's inputs.
	seed, fseed := roundSeeds(o, 0)
	nrSink := newReplaySink(replayReceivers, warmEpochs+windowEpochs, warmEpochs, stationTruth(replayReceivers), false)
	nrRound, err := runRound(faulted, "nr", seed, fseed, nrSink)
	if err != nil {
		return err
	}
	var dlg []roundOut
	for _, r := range untraced {
		if r.k == 0 {
			dlg = append(dlg, r)
		}
	}
	nrStep := nrRound.summarize(0, nrSink).step50
	res.add("core.theta_step_pct", "%", 100*col(dlg, func(r roundOut) float64 { return r.step50 })/nrStep,
		fmt.Sprintf("DLG-primary over NR-primary engine.step_ns (%.0f ns), sub-seed 0", nrStep*1e6))

	seed, fseed = roundSeeds(o, k)
	rc := replicaConfig{
		seed: seed, faultSeed: fseed, workers: replayWorkers,
		stride: traced.epochs, warm: warmEpochs,
	}
	for r := 0; r < replayReceivers; r++ {
		rc.receivers = append(rc.receivers, r)
	}
	if faulted {
		prog, err := parseReference()
		if err != nil {
			return err
		}
		rc.faults = tileFaults(prog, faultPeriod, warmEpochs+windowEpochs)
		rc.weighting, rc.disruption, rc.quality, rc.journal = true, true, true, true
	}
	rp, err := runReplicas(res, rc, traced.epochs, func(int, int) bool { return true },
		func(recv, ep int) fixRec { return traced.recs[recv*traced.epochs+ep] }, "receiver")
	if err != nil {
		return err
	}
	addEngineSpans(rp.tr, traced)
	replicaLayers(res, rp, stepNs)
	return writeTrace(o, res, rp.tr)
}

// addEngineSpans converts the traced replay sink's records into
// engine.sink spans and the engine.step spans between them.
func addEngineSpans(t *tracer, s *replaySink) {
	for sh := range s.shards {
		var prevEnd int64
		for _, sp := range s.shards[sh].spans {
			id := uint32(int(sp.recv)*s.epochs + int(sp.epoch))
			if prevEnd != 0 {
				t.add(stEngineStep, id, prevEnd, sp.start)
			}
			t.add(stEngineSink, id, sp.start, sp.end)
			prevEnd = sp.end
		}
	}
}

func writeTrace(o options, res *result, t *tracer) error {
	path, err := t.write(o.outDir, o.workload)
	if err != nil {
		return err
	}
	res.add("trace.spans", "count", float64(len(t.spans)), "written to "+path)
	return nil
}

// serveLayers is the traced serve-wire run: tracing alternates per
// block of epochs, the per-layer numbers come from traced epochs of the
// window, and the replica re-steps replayedSessions over every epoch the
// engine stepped them.
func serveLayers(o options, res *result, st *stack, e0, e1 int) error {
	s := st.sink
	inWindow := func(ep int) bool { return ep >= e0 && ep < e1 && s.tracedEpoch(ep) }
	var steps, publish, dispatch, makespan []float64
	for sh := 0; sh < serveWorkers; sh++ {
		steps = append(steps, s.steps[sh]...)
		publish = append(publish, s.publish[sh]...)
		for ep := e0; ep < e1; ep++ {
			if s.first[sh][ep] != 0 && s.tracedEpoch(ep) {
				dispatch = append(dispatch, float64(s.first[sh][ep]-due(ep))/1e6)
				makespan = append(makespan, float64(s.lastEnd[sh][ep]-due(ep))/1e6)
			}
		}
	}
	step := Summarize(steps)
	res.addTiming("engine.step_ns", "ns", step)
	res.addTiming("engine.dispatch_ms", "ms", Summarize(dispatch))
	res.addTiming("engine.makespan_ms", "ms", Summarize(makespan))
	res.add("engine.skipped_ticks", "count", float64(st.eng.Stats().SkippedTicks), "")
	res.addTiming("engine.tick_lag_ms", "ms", Summarize(append([]float64(nil), st.lag[e0:e1]...)))
	fixes := float64(res.ledger[Served])
	res.add("engine.alloc_b_per_fix", "B", float64(st.m1.TotalAlloc-st.m0.TotalAlloc)/fixes, "window allocations / served fixes, whole process")
	res.add("engine.gc_cycles", "count", float64(st.m1.NumGC-st.m0.NumGC), "over the window")
	res.add("epochcache.hit_ratio", "ratio", hitRatio(st.reg), "engine registry")

	// Sink-side tracing cost: fix latency in traced blocks against
	// untraced ones.
	var on, off []float64
	for r := 0; r < serveSessions; r++ {
		for ep := e0; ep < e1; ep++ {
			i := r*s.epochs + ep
			if s.counts[i] != 1 || s.errs[i] {
				continue
			}
			l := float64(s.at[i] - due(ep))
			if s.tracedEpoch(ep) {
				on = append(on, l)
			} else {
				off = append(off, l)
			}
		}
	}
	latOn, latOff := Summarize(on).Median, Summarize(off).Median
	res.add("trace.sink_overhead_pct", "%", 100*(latOn-latOff)/latOff,
		fmt.Sprintf("fix latency p50 traced %.3f ms vs untraced %.3f ms", latOn/1e6, latOff/1e6))

	// Wire and cluster: the subscribed session's hops.
	res.addTiming("wire.publish_ns", "ns", Summarize(publish))
	var enc wire.FixEncoder
	enc.KeyframeEvery = keyframeEvery
	var frame []byte
	frames, bytes := 0, 0
	for ep := 0; ep < e1; ep++ {
		if s.counts[subscribed*s.epochs+ep] != 1 {
			continue
		}
		f := s.expect[ep]
		frame, _ = enc.AppendFix(frame[:0], &f)
		if ep >= e0 {
			frames++
			bytes += len(frame)
		}
	}
	res.add("wire.bytes_per_fix", "B", float64(bytes)/float64(max(frames, 1)), "FIX frames of the subscribed session, keyframes every 100 epochs")
	res.add("wire.evicted", "count", float64(st.node.Hub.Stats().Evicted), "")
	direct := map[uint64]int64{}
	for _, d := range st.direct.got {
		direct[d.fix.Epoch] = d.at
	}
	var hop, proxyHop []float64
	t := &tracer{}
	for _, d := range st.direct.got {
		ep := int(d.fix.Epoch)
		if !inWindow(ep) {
			continue
		}
		sinkAt := s.start + s.at[subscribed*s.epochs+ep]
		hop = append(hop, float64(d.at-sinkAt)/1e6)
		t.add(stWireHop, uint32(subscribed*s.epochs+ep), sinkAt-s.start, d.at-s.start)
	}
	for _, p := range st.proxied.got {
		ep := int(p.fix.Epoch)
		if at, ok := direct[p.fix.Epoch]; ok && inWindow(ep) {
			proxyHop = append(proxyHop, float64(p.at-at)/1e6)
			t.add(stProxyHop, uint32(subscribed*s.epochs+ep), at-s.start, p.at-s.start)
		}
	}
	res.addTiming("wire.hop_ms", "ms", Summarize(hop))
	res.addTiming("cluster.proxy_hop_ms", "ms", Summarize(proxyHop))
	res.add("cluster.relayed", "count", float64(st.proxyReg.Counter("gpsproxy_frames_relayed_total", "").Value()), "FIX frames the proxy forwarded")

	// The replica.
	rc := replicaConfig{
		seed: o.seed, workers: serveWorkers, receivers: replayedSessions,
		stride: s.epochs, quality: true,
	}
	rp, err := runReplicas(res, rc, e1, func(recv, ep int) bool { return s.counts[recv*s.epochs+ep] > 0 },
		func(recv, ep int) fixRec { return s.recs[s.slotOf[recv]][ep] }, "session")
	if err != nil {
		return err
	}
	rp.tr.spans = append(rp.tr.spans, t.spans...)
	for sh := range s.spans {
		prev := serveSpan{epoch: -1}
		for _, sp := range s.spans[sh] {
			id := uint32(int(sp.recv)*s.epochs + int(sp.epoch))
			rp.tr.add(stDispatch, id, due(int(sp.epoch)), sp.enter)
			if prev.epoch == sp.epoch {
				rp.tr.add(stEngineStep, id, prev.end, sp.enter)
			}
			rp.tr.add(stEngineSink, id, sp.enter, sp.end)
			rp.tr.add(stPublish, id, sp.pub, sp.end)
			prev = sp
		}
	}
	replicaLayers(res, rp, step.Median)
	return writeTrace(o, res, rp.tr)
}
