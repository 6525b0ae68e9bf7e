package fault

import (
	"math"
	"testing"

	"gpsdl/internal/scenario"
)

// TestGaussMoments: over 128 000 (prn, t) pairs, the burst and jam
// streams are standard normal — mean ≈ 0, variance ≈ 1, and the
// two-sided 3σ tail ≈ 0.27%. Bounds are five standard errors, and the
// draws are deterministic, so the test cannot flake.
func TestGaussMoments(t *testing.T) {
	const prns, epochs = 32, 4000
	const n = prns * epochs
	for name, seed := range map[string]int64{"burst": 11, "jam": 11 ^ jamStreamTag} {
		var sum, sumSq float64
		tail := 0
		for prn := 1; prn <= prns; prn++ {
			for k := 0; k < epochs; k++ {
				g := gauss(seed, prn, 600+0.5*float64(k))
				sum += g
				sumSq += g * g
				if math.Abs(g) > 3 {
					tail++
				}
			}
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		frac := float64(tail) / n
		const pTail = 0.0026998 // P(|Z| > 3)
		t.Logf("%s: mean %.5f, variance %.5f, 3σ tail %.4f%%", name, mean, variance, 100*frac)
		if se := 1 / math.Sqrt(n); math.Abs(mean) > 5*se {
			t.Errorf("%s: mean %g, want |mean| <= %g", name, mean, 5*se)
		}
		if se := math.Sqrt(2.0 / n); math.Abs(variance-1) > 5*se {
			t.Errorf("%s: variance %g, want within %g of 1", name, variance, 5*se)
		}
		if se := math.Sqrt(pTail * (1 - pTail) / n); math.Abs(frac-pTail) > 5*se {
			t.Errorf("%s: 3σ tail %g, want within %g of %g", name, frac, 5*se, pTail)
		}
	}
}

// TestGaussPure: a draw is a function of (seed, prn, t) alone — the
// same inputs give the same bits however the calls interleave, and
// changing any one input changes the draw.
func TestGaussPure(t *testing.T) {
	type key struct {
		seed int64
		prn  int
		t    float64
	}
	keys := []key{{1, 7, 200}, {1, 7, 200.5}, {1, 8, 200}, {2, 7, 200}, {2 ^ jamStreamTag, 7, 200}}
	first := make([]uint64, len(keys))
	for i, k := range keys {
		first[i] = math.Float64bits(gauss(k.seed, k.prn, k.t))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if got := math.Float64bits(gauss(k.seed, k.prn, k.t)); got != first[i] {
			t.Errorf("gauss%v: %#x on a second call, %#x on the first", k, got, first[i])
		}
	}
	for i := 1; i < len(keys); i++ {
		if first[i] == first[0] {
			t.Errorf("gauss%v equals gauss%v", keys[i], keys[0])
		}
	}
}

// TestApplyBurstJamNoAlloc: with reused observation and event buffers,
// Apply on an epoch under both burst and jam allocates nothing.
func TestApplyBurstJamNoAlloc(t *testing.T) {
	prog, err := ParseSpec("burst:sigma=10,from=0,until=100;jam:sigma=15,from=0,until=100")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(prog, 3)
	ep := testEpoch(50)
	for i := range ep.Obs {
		ep.Obs[i].CN0 = 45
	}
	dst := make([]scenario.SatObs, 0, len(ep.Obs))
	ev := make([]Event, 0, 2*len(ep.Obs))
	var got []Event
	allocs := testing.AllocsPerRun(200, func() {
		_, got = in.Apply(ep.T, ep.Obs, dst[:0], ev[:0])
	})
	if len(got) != 2*len(ep.Obs) {
		t.Fatalf("%d events, want %d burst + jam", len(got), 2*len(ep.Obs))
	}
	if allocs != 0 {
		t.Errorf("Apply allocated %v times per burst+jam epoch, want 0", allocs)
	}
}

// BenchmarkApplyBurst measures one burst epoch on six satellites with
// reused buffers.
func BenchmarkApplyBurst(b *testing.B) {
	prog, err := ParseSpec("burst:sigma=10,from=0,until=1e9")
	if err != nil {
		b.Fatal(err)
	}
	in := NewInjector(prog, 3)
	ep := testEpoch(50)
	dst := make([]scenario.SatObs, 0, len(ep.Obs))
	ev := make([]Event, 0, len(ep.Obs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, ev = in.Apply(ep.T+float64(i), ep.Obs, dst[:0], ev[:0])
	}
}
