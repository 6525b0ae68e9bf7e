package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpsdl/internal/geo"
	"gpsdl/internal/mat"
)

// referenceNRSolve is the Newton–Raphson loop as it stood before the
// normal equations were fused into the linearization: it writes the m×4
// design matrix and right-hand side, then calls mat.NormalEq4 and
// mat.Solve4. It is kept unchanged as the oracle that NRSolver.Solve
// must match bit for bit.
func referenceNRSolve(s *NRSolver, obs []Observation) (Solution, error) {
	if err := checkMinObs("NR", obs, 4); err != nil {
		return Solution{}, err
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 20
	}
	tol := s.Tol
	if tol <= 0 {
		tol = 1e-4
	}
	var x, y, z, eps float64
	if s.InitialGuess != nil {
		x, y, z = s.InitialGuess.Pos.X, s.InitialGuess.Pos.Y, s.InitialGuess.Pos.Z
		eps = s.InitialGuess.ClockBias
	}
	m := len(obs)
	rows := make([][4]float64, m)
	rhs := make([]float64, m)
	var sqw []float64
	if s.Weight != nil {
		sqw = make([]float64, m)
		for i, o := range obs {
			w := s.Weight(o)
			if w <= 0 || math.IsNaN(w) {
				return Solution{}, fmt.Errorf("NR weight %v for observation %d: %w", w, i, ErrBadObservation)
			}
			sqw[i] = math.Sqrt(w)
		}
	}
	for iter := 1; iter <= maxIter; iter++ {
		for i, o := range obs {
			dx, dy, dz := x-o.Pos.X, y-o.Pos.Y, z-o.Pos.Z
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if r == 0 {
				return Solution{}, fmt.Errorf("NR iterate coincides with satellite %d: %w", i, ErrDegenerateGeometry)
			}
			rows[i] = [4]float64{dx / r, dy / r, dz / r, 1}
			rhs[i] = -(r - o.Pseudorange + eps)
			if sqw != nil {
				w := sqw[i]
				rows[i][0] *= w
				rows[i][1] *= w
				rows[i][2] *= w
				rows[i][3] *= w
				rhs[i] *= w
			}
		}
		ata, atb := mat.NormalEq4(rows, rhs)
		delta, err := mat.Solve4(ata, atb)
		if err != nil {
			return Solution{}, fmt.Errorf("NR normal equations: %w", ErrDegenerateGeometry)
		}
		x += delta[0]
		y += delta[1]
		z += delta[2]
		eps += delta[3]
		if math.Abs(delta[0]) < tol && math.Abs(delta[1]) < tol &&
			math.Abs(delta[2]) < tol && math.Abs(delta[3]) < tol {
			return Solution{
				Pos:        geo.ECEF{X: x, Y: y, Z: z},
				ClockBias:  eps,
				Iterations: iter,
			}, nil
		}
	}
	return Solution{}, fmt.Errorf("NR after %d iterations: %w", maxIter, ErrNoConvergence)
}

// sameSolution reports whether two solutions agree bit for bit.
func sameSolution(a, b Solution) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		math.Float64bits(a.Pos.Z) == math.Float64bits(b.Pos.Z) &&
		math.Float64bits(a.ClockBias) == math.Float64bits(b.ClockBias) &&
		a.Iterations == b.Iterations
}

// TestNRMatchesReference: the fused kernel must return exactly what the
// rows → NormalEq4 → Solve4 loop returns — same bits, same iteration
// count, same error — on random and constellation geometries with 4–14
// satellites, weighted and unweighted, cold and warm started, including
// rows whose partials are exactly zero.
func TestNRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1515))
	type geometry struct {
		name  string
		recv  geo.ECEF
		bias  float64
		obs   []Observation
		noisy bool
	}
	var scenes []geometry
	for m := 4; m <= 14; m++ {
		for k := 0; k < 6; k++ {
			recv, obs, bias := synthScene(rng, m)
			scenes = append(scenes, geometry{fmt.Sprintf("synth-m%d-%d", m, k), recv, bias, obs, k%2 == 1})
		}
		// The default constellation shows at most ~12 satellites at once.
		if m <= 10 {
			epoch := 3600 * float64(m)
			obs, err := benchScene(yyr1(), epoch, 137, m)
			if err != nil {
				t.Fatal(err)
			}
			scenes = append(scenes, geometry{fmt.Sprintf("const-m%d", m), yyr1(), 137, obs, true})
		}
	}
	weights := map[string]func(Observation) float64{
		"plain":     nil,
		"elevation": ElevationWeight,
		"sigma":     SigmaWeight,
	}
	var cases int
	for _, sc := range scenes {
		obs := append([]Observation(nil), sc.obs...)
		for i := range obs {
			if sc.noisy {
				obs[i].Pseudorange += 3 * rng.NormFloat64()
			}
			obs[i].Sigma = 0.5 + 4*rng.Float64()
		}
		// Exact-zero partials: from the cold start (0,0,0) a satellite
		// with a zero coordinate has a zero partial in that axis; from a
		// warm start, so does one sharing a coordinate with the guess.
		zeroX := append([]Observation(nil), obs...)
		zeroX[0].Pos.X = 0
		zeroX[0].Pseudorange = sc.recv.DistanceTo(zeroX[0].Pos) + sc.bias
		warm := &Solution{Pos: geo.ECEF{X: sc.recv.X + 40, Y: sc.recv.Y - 25, Z: sc.recv.Z + 10}, ClockBias: sc.bias + 3}
		shared := append([]Observation(nil), obs...)
		shared[1].Pos.Y = warm.Pos.Y
		shared[1].Pos.Z = warm.Pos.Z
		shared[1].Pseudorange = sc.recv.DistanceTo(shared[1].Pos) + sc.bias
		variants := []struct {
			name  string
			obs   []Observation
			guess *Solution
		}{
			{"cold", obs, nil},
			{"warm", obs, warm},
			{"cold-zeroX", zeroX, nil},
			{"warm-shared", shared, warm},
		}
		for wname, w := range weights {
			for _, v := range variants {
				for _, scratch := range []*Scratch{nil, new(Scratch)} {
					s := &NRSolver{Weight: w, InitialGuess: v.guess, Scratch: scratch}
					got, gotErr := s.Solve(0, v.obs)
					want, wantErr := referenceNRSolve(s, v.obs)
					name := fmt.Sprintf("%s/%s/%s/scratch=%v", sc.name, wname, v.name, scratch != nil)
					if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
					}
					if !sameSolution(got, want) {
						t.Fatalf("%s: %+v, reference %+v", name, got, want)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d solves bit-identical to the reference", cases)
}

// TestNRRejectsNonFiniteWeight: a weight of +Inf, NaN or ≤ 0 is a bad
// observation up front, not 20 iterations of NaN ending in
// ErrNoConvergence. A tiny positive Sigma passes checkMinObs but
// overflows SigmaWeight to +Inf; it must be rejected the same way.
func TestNRRejectsNonFiniteWeight(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 6)
	for _, bad := range []float64{math.Inf(1), math.NaN(), 0, -1} {
		s := NRSolver{Weight: func(Observation) float64 { return bad }}
		if _, err := s.Solve(0, obs); !errors.Is(err, ErrBadObservation) {
			t.Errorf("weight %v: error = %v, want ErrBadObservation", bad, err)
		}
	}
	tiny := append([]Observation(nil), obs...)
	tiny[3].Sigma = 1e-200
	if err := checkMinObs("NR", tiny, 4); err != nil {
		t.Fatalf("tiny Sigma rejected by validation: %v", err)
	}
	if w := SigmaWeight(tiny[3]); !math.IsInf(w, 1) {
		t.Fatalf("SigmaWeight(σ=1e-200) = %v, want +Inf", w)
	}
	s := NRSolver{Weight: SigmaWeight}
	if _, err := s.Solve(0, tiny); !errors.Is(err, ErrBadObservation) {
		t.Errorf("Sigma=1e-200: error = %v, want ErrBadObservation", err)
	}
}

// BenchmarkNRSolve measures one cold NR fix on 10 satellites (about five
// iterations), unweighted and σ-weighted, with a warm scratch; both must
// run without allocating.
func BenchmarkNRSolve(b *testing.B) {
	obs, err := benchScene(yyr1(), 1000, 137, 10)
	if err != nil {
		b.Fatal(err)
	}
	for i := range obs {
		obs[i].Sigma = 0.8 + 0.2*float64(i)
	}
	for _, bc := range []struct {
		name   string
		weight func(Observation) float64
	}{{"plain", nil}, {"weighted", SigmaWeight}} {
		b.Run(bc.name, func(b *testing.B) {
			s := &NRSolver{Weight: bc.weight, Scratch: new(Scratch)}
			if _, err := s.Solve(0, obs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(0, obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
