package main

import (
	"fmt"
	"math"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/epochcache"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/geo"
	"gpsdl/internal/journal"
	"gpsdl/internal/nmea"
	"gpsdl/internal/orbit"
	"gpsdl/internal/quality"
	"gpsdl/internal/rng"
	"gpsdl/internal/scenario"
	"gpsdl/internal/slo"
	"gpsdl/internal/telemetry"
)

// The replica re-runs the engine's per-epoch session step outside the
// engine, calling the same public functions in the same order, so each
// stage can be timed: the engine's step has no stage hooks. Values below
// mirror the engine's defaults and private constants; the fidelity check
// (every replicated fix bit-identical to the engine's) is what keeps
// them honest.
const (
	breakerK         = 8     // engine.Config.BreakerThreshold default
	minPlausibleNorm = 5.4e6 // warm-start feed plausibility band (m)
	maxPlausibleNorm = 7.4e6 //
	journalSigma     = 5.0   // χ² sigma the journal assumes without quality
	qualitySigma     = 5.0   // engine.QualityConfig.Sigma default
	evalEvery        = 64    // engine.QualityConfig.EvalEvery default
	captureEvery     = 64    // engine.Config.JournalCaptureEvery default
	journalBatch     = 32    // engine.Config.BatchSize default
	qualityWindow    = 600   // engine.QualityConfig.Window default
	epochStep        = 1.0   // engine.Config.Step default (s)
)

// chainOrder is the engine's default fallback chain: the DLG primary,
// then the other solvers in the engine's order.
var chainOrder = [...]string{"dlg", "nr", "dlo", "bancroft"}

// replicaConfig is the part of an engine.Config the step depends on.
type replicaConfig struct {
	seed, faultSeed int64
	faults          fault.Program
	weighting       bool
	disruption      bool
	quality         bool
	journal         bool
	workers         int
	receivers       []int // global receiver ids, in engine order
	stride          int   // span ids are receiver·stride + epoch
	warm            int   // first epoch of the second RunRange (journal batches restart there)
}

// sessionSeed is the engine's per-receiver seed mixing.
func sessionSeed(base int64, r int) int64 {
	return int64(rng.Mix64(rng.Mix64(uint64(base)) + uint64(r)))
}

// counted wraps a chain member to count attempted solves.
type counted struct {
	core.Solver
	n *uint64
}

func (c counted) Solve(t float64, obs []core.Observation) (core.Solution, error) {
	*c.n++
	return c.Solver.Solve(t, obs)
}

// replica is the traced re-execution of a set of engine sessions.
type replica struct {
	cfg      replicaConfig
	cache    *epochcache.Cache
	shards   [][]*replicaSession
	qwin     []*quality.Window
	jenc     []*journal.Encoder
	jw       *journal.Writer
	jsink    *countingWriter
	fallback *core.FallbackMetrics
	raim     *core.RAIMMetrics
	tr       *tracer // nil records no spans

	attempts                   uint64 // solver calls by the chain and the breaker probe
	fixes, coasts, faultEvents uint64
	sats, nmeaBytes, steps     uint64
}

// replicaSession mirrors one engine session's state.
type replicaSession struct {
	rp    *replica
	recv  int
	sh    int // owning shard
	pos   int // index within its shard
	truth scenario.Station
	gen   *scenario.Generator
	inj   *fault.Injector
	pred  clock.Predictor
	warm  *core.NRSolver
	chain *core.FallbackChain
	probe core.Solver
	dis   *core.DisruptionDetector

	state      uint8 // engine.SessionState ordinal
	lastGood   core.Solution
	haveGood   bool
	consecFail int
	brkOpen    bool

	win  *quality.Window
	eval *slo.Evaluator
	last quality.Sample

	rec       journal.Record
	res       []journal.SatResidual
	cobs      []journal.CapturedObs
	prevState uint8

	obs  []core.Observation
	fobs []scenario.SatObs
	fev  []fault.Event
	buf  []byte
}

// Session states, as engine.SessionState ordinals.
const (
	stateHealthy uint8 = iota
	stateDegraded
	stateCoasting
)

// newReplica builds the sessions of cfg; traced replicas record spans.
func newReplica(cfg replicaConfig, traced bool) (*replica, error) {
	reg := telemetry.NewRegistry()
	cache, err := epochcache.New(orbit.DefaultConstellation(), 0, epochStep, epochcache.Options{})
	if err != nil {
		return nil, err
	}
	rp := &replica{
		cfg: cfg, cache: cache,
		shards:   make([][]*replicaSession, cfg.workers),
		fallback: core.NewFallbackMetrics(reg),
		raim:     core.NewRAIMMetrics(reg),
	}
	if traced {
		rp.tr = &tracer{}
	}
	stations := scenario.Table51Stations()
	for _, r := range cfg.receivers {
		sh := r % cfg.workers
		s, err := rp.newSession(r, stations[r%len(stations)])
		if err != nil {
			return nil, err
		}
		s.sh, s.pos = sh, len(rp.shards[sh])
		rp.shards[sh] = append(rp.shards[sh], s)
	}
	if cfg.quality {
		for _, sess := range rp.shards {
			rp.qwin = append(rp.qwin, quality.NewWindow(qualityWindow*len(sess)))
		}
	}
	if cfg.journal {
		rp.jsink = &countingWriter{}
		if rp.jw, err = journal.NewWriter(rp.jsink, journal.Meta{Solver: chainOrder[0]}, journal.Options{}); err != nil {
			return nil, err
		}
		for range rp.shards {
			rp.jenc = append(rp.jenc, &journal.Encoder{})
		}
	}
	return rp, nil
}

func (rp *replica) newSession(r int, st scenario.Station) (*replicaSession, error) {
	gcfg := scenario.DefaultConfig(sessionSeed(rp.cfg.seed, r))
	gcfg.Step = epochStep
	gcfg.CodeOnly = true
	s := &replicaSession{
		rp: rp, recv: r, truth: st,
		gen:  scenario.NewGenerator(st, gcfg, scenario.WithConstellation(rp.cache.Constellation()), scenario.WithEpochCache(rp.cache)),
		pred: eval.DefaultPredictor(st.Clock),
	}
	if len(rp.cfg.faults) > 0 {
		s.inj = fault.NewInjector(rp.cfg.faults, sessionSeed(rp.cfg.faultSeed, r))
	}
	if rp.cfg.disruption {
		s.dis = &core.DisruptionDetector{}
	}
	weighted := rp.cfg.weighting || rp.cfg.disruption
	sc := &core.Scratch{}
	s.warm = &core.NRSolver{Scratch: sc}
	if weighted {
		s.warm.Weight = core.SigmaWeight
	}
	var members []core.Solver
	for _, n := range chainOrder {
		var sv core.Solver
		switch n {
		case "nr":
			nr := &core.NRSolver{Scratch: sc}
			if weighted {
				nr.Weight = core.SigmaWeight
			}
			sv = nr
		case "dlo":
			d := core.NewDLOSolver(s.pred)
			d.Scratch = sc
			sv = d
		case "dlg":
			d := core.NewDLGSolver(s.pred)
			d.Scratch = sc
			d.Variant = core.VariantFast
			d.Weighted = weighted
			sv = d
		case "bancroft":
			sv = core.BancroftSolver{}
		default:
			return nil, fmt.Errorf("replica: unknown solver %q", n)
		}
		members = append(members, counted{sv, &rp.attempts})
	}
	chain, err := core.NewFallbackChain(members...)
	if err != nil {
		return nil, err
	}
	chain.EnableRAIM(0, rp.raim)
	chain.SetMetrics(rp.fallback)
	s.chain = chain
	dlo := core.NewDLOSolver(s.pred)
	dlo.Scratch = sc
	s.probe = counted{dlo, &rp.attempts}
	if rp.cfg.quality {
		s.win = quality.NewWindow(qualityWindow)
		if s.eval, err = slo.NewEvaluator(slo.DefaultObjectives()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// run steps epochs [0, end) in the engine's order — per epoch, shard by
// shard, sessions in shard order — calling stepped(recv, epoch) to learn
// whether the engine stepped that session-epoch (a paced run skips
// ticks) and check with each replicated fix.
func (rp *replica) run(end int, stepped func(recv, epoch int) bool, check func(recv, epoch int, rec fixRec)) error {
	batchStart := func(i int) bool {
		if i < rp.cfg.warm {
			return i%journalBatch == 0
		}
		return (i-rp.cfg.warm)%journalBatch == 0
	}
	tr := rp.tr
	for i := 0; i < end; i++ {
		if rp.jw != nil && batchStart(i) {
			for sh, enc := range rp.jenc {
				enc.Begin(sh, uint64(i))
			}
		}
		t := tr.now()
		if _, err := rp.cache.At(i); err != nil {
			return err
		}
		tr.since(stCacheAt, uint32(i), t)
		for sh, sessions := range rp.shards {
			for _, s := range sessions {
				if !stepped(s.recv, i) {
					continue
				}
				check(s.recv, i, s.step(i))
				if rp.qwin != nil {
					smp := s.last
					smp.Epoch = uint64(i)*uint64(len(sessions)) + uint64(s.pos)
					t := tr.now()
					rp.qwin[sh].Observe(smp)
					tr.since(stQuality, s.id(i), t)
				}
			}
			if rp.qwin != nil && (i+1)%evalEvery == 0 {
				rp.qwin[sh].SnapshotInto(&quality.Snapshot{})
			}
		}
		if rp.jw != nil && (i+1 == end || batchStart(i+1)) {
			for sh, enc := range rp.jenc {
				if enc.Count() == 0 {
					continue
				}
				t := tr.now()
				if err := rp.jw.WriteRecords(enc.Payload(), enc.Count(), uint64(i)); err != nil {
					return err
				}
				tr.since(stJournalWrite, uint32(i*len(rp.jenc)+sh), t)
			}
		}
	}
	return nil
}

func (s *replicaSession) id(i int) uint32 { return uint32(s.recv*s.rp.cfg.stride + i) }

// step is session.step: generate, fault, disruption, NR clock feed,
// breaker, chain, DOP, quality, journal, NMEA.
func (s *replicaSession) step(i int) fixRec {
	rp, tr, id := s.rp, s.rp.tr, s.id(i)
	rp.steps++
	t0 := tr.now()
	defer tr.since(stStep, id, t0)
	ep, err := s.gen.EpochAt(float64(i) * epochStep)
	tr.since(stEpochAt, id, t0)
	if err != nil {
		s.observeQuality(quality.Sample{Epoch: uint64(i)}, id)
		s.journalMiss(i, id)
		return fixRec{err: true}
	}
	rp.sats += uint64(len(ep.Obs))
	satObs := ep.Obs
	if s.inj != nil {
		t := tr.now()
		s.fobs, s.fev = s.inj.Apply(ep.T, ep.Obs, s.fobs[:0], s.fev[:0])
		tr.since(stFault, id, t)
		satObs = s.fobs
		rp.faultEvents += uint64(len(s.fev))
	}
	obs := s.obs[:0]
	for j := range satObs {
		o := &satObs[j]
		co := core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation}
		if rp.cfg.weighting && o.CN0 > 0 {
			co.Sigma = core.SigmaFromCN0(o.CN0)
		}
		obs = append(obs, co)
	}
	s.obs = obs
	disrupted := false
	if s.dis != nil && s.haveGood {
		t := tr.now()
		ref := s.lastGood
		if bias, perr := s.pred.PredictBias(ep.T); perr == nil {
			ref.ClockBias = bias * geo.SpeedOfLight
		}
		tr.since(stPredict, id, t)
		t = tr.now()
		disrupted = s.dis.Downweight(ref, obs) > 0
		tr.since(stDisrupt, id, t)
	}
	t := tr.now()
	nrSol, nerr := s.warm.Solve(ep.T, obs)
	tr.since(stNRFeed, id, t)
	if nerr == nil {
		if n := nrSol.Pos.Norm(); n >= minPlausibleNorm && n <= maxPlausibleNorm {
			t := tr.now()
			s.pred.Observe(clock.Fix{T: ep.T, Bias: nrSol.ClockBias / geo.SpeedOfLight})
			tr.since(stObserve, id, t)
		}
	}
	if s.brkOpen {
		if _, perr := s.probe.Solve(ep.T, obs); perr == nil {
			s.brkOpen, s.consecFail = false, 0
		}
	}
	t = tr.now()
	res, cerr := s.chain.Solve(ep.T, obs)
	tr.since(stChain, id, t)
	if cerr != nil {
		s.consecFail++
		if !s.brkOpen && s.consecFail >= breakerK {
			s.brkOpen = true
		}
		return s.coastOrFail(i, ep.T, len(obs), id)
	}
	s.consecFail = 0
	s.brkOpen = false
	if !res.Suspect {
		s.lastGood, s.haveGood = res.Solution, true
	}
	if res.Degraded() || disrupted {
		s.state = stateDegraded
	} else {
		s.state = stateHealthy
	}
	t = tr.now()
	hdop, pdop, dopOK := 0.0, 0.0, false
	if dop, derr := core.DOPFromObs(res.Solution.Pos, obs); derr == nil {
		hdop, pdop, dopOK = dop.HDOP, dop.PDOP, true
	}
	tr.since(stDOP, id, t)
	var fq core.FixQuality
	var clockInnov float64
	var clockOK bool
	if s.win != nil || rp.jw != nil {
		sigma := journalSigma
		if s.win != nil {
			sigma = qualitySigma
		}
		t := tr.now()
		fq = core.AssessFixExcluding(res.Solution, obs, res.Excluded, sigma)
		tr.since(stAssess, id, t)
		t = tr.now()
		if bias, perr := s.pred.PredictBias(ep.T); perr == nil {
			clockInnov, clockOK = math.Abs(res.Solution.ClockBias-bias*geo.SpeedOfLight), true
		}
		tr.since(stPredict, id, t)
	}
	if s.win != nil {
		s.observeQuality(quality.Sample{
			Epoch: uint64(i), FixOK: true,
			RMS: fq.ResidualRMS, RMSValid: fq.RMSValid,
			Chi2Pass: fq.Chi2Pass, Chi2Valid: fq.Chi2Valid,
			PDOP: pdop, HDOP: hdop, DOPValid: dopOK,
			ChainIndex: res.Index, Excluded: res.Excluded >= 0,
			ClockInnov: clockInnov, ClockValid: clockOK,
		}, id)
	}
	if rp.jw != nil {
		t := tr.now()
		s.journalFix(i, ep.T, &res, &fq, pdop, hdop, dopOK, clockInnov, clockOK, satObs)
		tr.since(stJournalEncode, id, t)
	}
	s.encodeNMEA(ep.T, res.Solution.Pos, nmea.QualityGPS, len(obs), hdop, id)
	rp.fixes++
	return fixRec{
		pos: res.Solution.Pos, clock: res.Solution.ClockBias,
		solver: journal.SolverIndex(res.Solver), excluded: int8(res.Excluded),
	}
}

// coastOrFail is session.coastOrFail.
func (s *replicaSession) coastOrFail(i int, t float64, sats int, id uint32) fixRec {
	tr := s.rp.tr
	s.observeQuality(quality.Sample{Epoch: uint64(i)}, id)
	s.state = stateCoasting
	if !s.haveGood {
		s.journalMiss(i, id)
		return fixRec{err: true}
	}
	sol := s.lastGood
	tt := tr.now()
	if bias, perr := s.pred.PredictBias(t); perr == nil {
		sol.ClockBias = bias * geo.SpeedOfLight
	}
	tr.since(stPredict, id, tt)
	s.encodeNMEA(t, sol.Pos, nmea.QualityEstimated, sats, 0, id)
	if s.rp.jw != nil {
		tt = tr.now()
		s.rec = journal.Record{
			Receiver: s.recv, Epoch: uint64(i),
			Flags: journal.FlagFix | journal.FlagCoast, State: s.state,
			Solver: journal.SolverIndex("coast"), Pos: sol.Pos, ClockBias: sol.ClockBias,
		}
		s.stateChange()
		s.rp.jenc[s.sh].Add(&s.rec)
		tr.since(stJournalEncode, id, tt)
	}
	s.rp.coasts++
	return fixRec{pos: sol.Pos, clock: sol.ClockBias, solver: journal.SolverIndex("coast"), excluded: -1, coast: true}
}

func (s *replicaSession) encodeNMEA(t float64, pos geo.ECEF, q nmea.FixQuality, sats int, hdop float64, id uint32) {
	tt := s.rp.tr.now()
	fix := nmea.Fix{TimeOfDay: t, Pos: pos.ToLLA(), Quality: q, NumSats: sats, HDOP: hdop}
	s.buf = nmea.AppendRMC(nmea.AppendGGA(s.buf[:0], fix), fix)
	s.rp.tr.since(stNMEA, id, tt)
	s.rp.nmeaBytes += uint64(len(s.buf))
}

// observeQuality is session.observeQuality.
func (s *replicaSession) observeQuality(sample quality.Sample, id uint32) {
	if s.win == nil {
		return
	}
	s.last = sample
	tr := s.rp.tr
	t := tr.now()
	s.win.Observe(sample)
	tr.since(stQuality, id, t)
	t = tr.now()
	s.eval.Observe(&sample)
	tr.since(stSLO, id, t)
	if s.state == stateHealthy && s.eval.Worst() == slo.StatePage {
		s.state = stateDegraded
	}
	if (sample.Epoch+1)%evalEvery == 0 {
		var snap quality.Snapshot
		s.win.SnapshotInto(&snap)
		s.eval.CountersInto(make([]slo.Counters, len(s.eval.Objectives())))
	}
}

func (s *replicaSession) stateChange() {
	if s.state != s.prevState {
		s.rec.Flags |= journal.FlagStateChange
		s.prevState = s.state
	}
}

// journalMiss is session.journalMiss.
func (s *replicaSession) journalMiss(i int, id uint32) {
	if s.rp.jw == nil {
		return
	}
	t := s.rp.tr.now()
	s.rec = journal.Record{Receiver: s.recv, Epoch: uint64(i), State: s.state}
	s.stateChange()
	s.rp.jenc[s.sh].Add(&s.rec)
	s.rp.tr.since(stJournalEncode, id, t)
}

// journalFix is session.journalFix.
func (s *replicaSession) journalFix(i int, t float64, res *core.FallbackResult,
	fq *core.FixQuality, pdop, hdop float64, dopOK bool,
	clockInnov float64, clockOK bool, satObs []scenario.SatObs) {
	r := &s.rec
	*r = journal.Record{
		Receiver: s.recv, Epoch: uint64(i), Flags: journal.FlagFix,
		State: s.state, Chain: uint8(res.Index),
		Solver: journal.SolverIndex(res.Solver), Pos: res.Solution.Pos,
	}
	r.ClockBias = res.Solution.ClockBias
	if res.Suspect {
		r.Flags |= journal.FlagSuspect
	}
	if fq.RMSValid {
		r.Flags |= journal.FlagRMS
		r.RMS = fq.ResidualRMS
	}
	if fq.Chi2Valid {
		r.Flags |= journal.FlagChi2Valid
		if fq.Chi2Pass {
			r.Flags |= journal.FlagChi2Pass
		}
	}
	if dopOK {
		r.Flags |= journal.FlagDOP
		r.PDOP, r.HDOP = pdop, hdop
	}
	if clockOK {
		r.Flags |= journal.FlagClock
		r.ClockInnov = clockInnov
	}
	if res.Excluded >= 0 && res.Excluded < len(satObs) {
		r.Flags |= journal.FlagExcluded
		r.ExcludedPRN = satObs[res.Excluded].PRN
	}
	s.stateChange()
	resid := s.res[:0]
	for j := range s.obs {
		o := &s.obs[j]
		v := o.Pseudorange - (res.Solution.Pos.DistanceTo(o.Pos) + res.Solution.ClockBias)
		resid = append(resid, journal.SatResidual{PRN: satObs[j].PRN, Meters: v})
	}
	s.res = resid
	r.Residuals = resid
	flagged := (fq.Chi2Valid && !fq.Chi2Pass) || res.Excluded >= 0 || res.Suspect
	if flagged || (uint64(i)+uint64(s.recv))%captureEvery == 0 {
		r.Flags |= journal.FlagObs
		if bias, perr := s.pred.PredictBias(t); perr == nil {
			r.PredBias = bias
		}
		cobs := s.cobs[:0]
		for j := range satObs {
			if j == res.Excluded {
				continue
			}
			o := &satObs[j]
			cobs = append(cobs, journal.CapturedObs{PRN: o.PRN, Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
		}
		s.cobs = cobs
		r.Obs = cobs
	}
	s.rp.jenc[s.sh].Add(r)
}

// sameFix reports whether two fix records are bit-identical; failures
// match on the error alone.
func sameFix(a, b fixRec) bool {
	if a.err || b.err {
		return a.err == b.err
	}
	bits := math.Float64bits
	return bits(a.pos.X) == bits(b.pos.X) && bits(a.pos.Y) == bits(b.pos.Y) &&
		bits(a.pos.Z) == bits(b.pos.Z) && bits(a.clock) == bits(b.clock) &&
		a.solver == b.solver && a.excluded == b.excluded && a.coast == b.coast
}
