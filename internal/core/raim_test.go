package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gpsdl/internal/clock"
	"gpsdl/internal/geo"
)

func TestRAIMCleanEpochPasses(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 2000, 80, 8)
	rng := rand.New(rand.NewSource(10))
	for i := range obs {
		obs[i].Pseudorange += rng.NormFloat64() * 3
	}
	r := &RAIM{Solver: &NRSolver{}}
	res, err := r.Check(2000, obs)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Excluded != -1 {
		t.Errorf("clean epoch excluded satellite %d", res.Excluded)
	}
	if res.TestStatistic > 15 {
		t.Errorf("clean statistic = %v", res.TestStatistic)
	}
	if d := res.Solution.Pos.DistanceTo(recv); d > 20 {
		t.Errorf("position error %v m", d)
	}
}

func TestRAIMDetectsAndExcludesFault(t *testing.T) {
	recv := yyr1()
	for faulty := 0; faulty < 8; faulty++ {
		obs := scene(t, recv, 2000, 80, 8)
		rng := rand.New(rand.NewSource(int64(20 + faulty)))
		for i := range obs {
			obs[i].Pseudorange += rng.NormFloat64() * 3
		}
		obs[faulty].Pseudorange += 500 // gross fault: half a km
		r := &RAIM{Solver: &NRSolver{}}
		res, err := r.Check(2000, obs)
		if err != nil {
			t.Fatalf("faulty=%d: %v", faulty, err)
		}
		if res.Excluded != faulty {
			t.Errorf("faulty=%d: excluded %d", faulty, res.Excluded)
		}
		if d := res.Solution.Pos.DistanceTo(recv); d > 20 {
			t.Errorf("faulty=%d: post-exclusion error %v m", faulty, d)
		}
	}
}

// TestRAIMExclusionZeroAlloc pins the reused leave-one-out buffer: once
// warm, an epoch that detects a fault and excludes it allocates
// nothing, and a RAIM reused across epochs reaches the same exclusion
// and the same solution bits as a fresh one.
func TestRAIMExclusionZeroAlloc(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 2000, 80, 8)
	rng := rand.New(rand.NewSource(21))
	for i := range obs {
		obs[i].Pseudorange += rng.NormFloat64() * 3
	}
	obs[3].Pseudorange += 500
	want, err := (&RAIM{Solver: &NRSolver{Scratch: &Scratch{}}}).Check(2000, obs)
	if err != nil || want.Excluded != 3 {
		t.Fatalf("fresh RAIM: excluded %d, err %v", want.Excluded, err)
	}
	r := &RAIM{Solver: &NRSolver{Scratch: &Scratch{}}}
	var got RAIMResult
	if n := testing.AllocsPerRun(50, func() {
		got, err = r.Check(2000, obs)
	}); n != 0 {
		t.Errorf("%v allocs per exclusion epoch, want 0", n)
	}
	if err != nil || got != want {
		t.Errorf("reused RAIM = %+v, %v; fresh = %+v", got, err, want)
	}
}

func TestRAIMWorksWithDirectSolvers(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 5000, 12, 9)
	rng := rand.New(rand.NewSource(33))
	for i := range obs {
		obs[i].Pseudorange += rng.NormFloat64() * 3
	}
	obs[4].Pseudorange -= 800
	for _, solver := range []Solver{NewDLOSolver(oracle(12)), NewDLGSolver(oracle(12))} {
		r := &RAIM{Solver: solver}
		res, err := r.Check(5000, obs)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if res.Excluded != 4 {
			t.Errorf("%s excluded %d, want 4", solver.Name(), res.Excluded)
		}
		if d := res.Solution.Pos.DistanceTo(recv); d > 20 {
			t.Errorf("%s post-exclusion error %v m", solver.Name(), d)
		}
	}
}

func TestRAIMTooFewSatellites(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 4)
	r := &RAIM{Solver: &NRSolver{}}
	if _, err := r.Check(0, obs); !errors.Is(err, ErrTooFewSatellites) {
		t.Errorf("error = %v, want ErrTooFewSatellites", err)
	}
}

func TestRAIMDetectWithoutExclusionAtFive(t *testing.T) {
	// With exactly 5 satellites RAIM can detect but not reliably
	// exclude; the contract is an error carrying the suspect fix.
	obs := scene(t, yyr1(), 3000, 0, 5)
	obs[2].Pseudorange += 2000
	r := &RAIM{Solver: &NRSolver{}}
	res, err := r.Check(3000, obs)
	if err == nil {
		t.Fatalf("fault at m=5 not reported; stat=%v", res.TestStatistic)
	}
	if res.TestStatistic <= 15 {
		t.Errorf("statistic %v did not flag the fault", res.TestStatistic)
	}
}

func TestRAIMNilSolver(t *testing.T) {
	r := &RAIM{}
	if _, err := r.Check(0, scene(t, yyr1(), 0, 0, 6)); err == nil {
		t.Error("RAIM with nil solver succeeded")
	}
}

func TestResidualStat(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 1000, 50, 6)
	// Exact solution: statistic ~ 0.
	sol := Solution{Pos: recv, ClockBias: 50}
	if got := residualStat(sol, obs); got > 1e-6 {
		t.Errorf("exact-solution statistic = %v", got)
	}
	// Biasing one range by k raises the statistic to ≈ k/sqrt(dof).
	obs[0].Pseudorange += 100
	got := residualStat(sol, obs)
	want := 100 / math.Sqrt(2)
	if math.Abs(got-want) > 1 {
		t.Errorf("statistic = %v, want ≈%v", got, want)
	}
}

func TestTriSatRecoversPosition(t *testing.T) {
	recv := yyr1()
	bias := 45.0
	obs := scene(t, recv, 4000, bias, 3)
	s := &TriSatSolver{Predictor: oracle(bias)}
	sol, err := s.Solve(4000, obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := sol.Pos.DistanceTo(recv); d > 0.5 {
		t.Errorf("TriSat noise-free error %v m", d)
	}
	if sol.Iterations != 1 {
		t.Errorf("iterations = %d", sol.Iterations)
	}
}

func TestTriSatAcrossTheDay(t *testing.T) {
	// The mirror-solution disambiguation must hold for arbitrary
	// geometry, not just one lucky epoch.
	recv := yyr1()
	for hour := 0; hour < 24; hour++ {
		epoch := float64(hour) * 3600
		obs := scene(t, recv, epoch, -12, 3)
		s := &TriSatSolver{Predictor: oracle(-12)}
		sol, err := s.Solve(epoch, obs)
		if err != nil {
			t.Errorf("hour %d: %v", hour, err)
			continue
		}
		if d := sol.Pos.DistanceTo(recv); d > 1 {
			t.Errorf("hour %d: error %v m", hour, d)
		}
	}
}

func TestTriSatNoisePropagation(t *testing.T) {
	// With meters of noise the closed form still lands within tens of
	// meters (3-satellite geometry amplifies noise more than m >= 4).
	recv := yyr1()
	obs := scene(t, recv, 9000, 0, 3)
	rng := rand.New(rand.NewSource(55))
	for i := range obs {
		obs[i].Pseudorange += rng.NormFloat64() * 3
	}
	s := &TriSatSolver{Predictor: oracle(0)}
	sol, err := s.Solve(9000, obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := sol.Pos.DistanceTo(recv); d > 100 {
		t.Errorf("noisy TriSat error %v m", d)
	}
}

func TestTriSatErrors(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 3)
	s := &TriSatSolver{Predictor: oracle(0)}
	if _, err := s.Solve(0, obs[:2]); !errors.Is(err, ErrTooFewSatellites) {
		t.Errorf("2 sats: error = %v", err)
	}
	uncal := &TriSatSolver{Predictor: newUncalibrated()}
	if _, err := uncal.Solve(0, obs); !errors.Is(err, ErrNoClockPrediction) {
		t.Errorf("uncalibrated: error = %v", err)
	}
	// Coincident satellites.
	dup := scene(t, yyr1(), 0, 0, 3)
	dup[1] = dup[0]
	if _, err := s.Solve(0, dup); !errors.Is(err, ErrDegenerateGeometry) {
		t.Errorf("coincident: error = %v", err)
	}
	// Inconsistent ranges: spheres cannot intersect.
	far := scene(t, yyr1(), 0, 0, 3)
	far[0].Pseudorange = 1e5 // tiny sphere around a distant satellite
	if _, err := s.Solve(0, far); err == nil {
		t.Error("inconsistent ranges accepted")
	}
}

func TestCross(t *testing.T) {
	got := cross(unitX(), unitY())
	if got.X != 0 || got.Y != 0 || got.Z != 1 {
		t.Errorf("x × y = %v, want z", got)
	}
}

func unitX() geo.ECEF { return geo.ECEF{X: 1} }
func unitY() geo.ECEF { return geo.ECEF{Y: 1} }

// newUncalibrated returns a predictor that has seen no fixes.
func newUncalibrated() clock.Predictor { return clock.NewLinearPredictor(10, 0) }
