package scenario

import (
	"math"
	"reflect"
	"testing"

	"gpsdl/internal/epochcache"
	"gpsdl/internal/geo"
	"gpsdl/internal/orbit"
)

// TestEpochIntoMatchesEpochAt: generating into one reused buffer gives
// exactly the epochs EpochAt allocates fresh, for a static station (held
// frame), a mobile receiver (frame rebuilt per epoch), a cache-backed
// generator, and the full observable set (CodeOnly off).
func TestEpochIntoMatchesEpochAt(t *testing.T) {
	st, err := StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	cons := orbit.DefaultConstellation()
	cache, err := epochcache.New(cons, 0, 1, epochcache.Options{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	code := DefaultConfig(5)
	code.CodeOnly = true
	gens := map[string]*Generator{
		"static":   NewGenerator(st, DefaultConfig(5)),
		"mobile":   NewGenerator(st, DefaultConfig(5), WithTrajectory(CircularTrajectory(st.Pos, 2000, 300))),
		"cached":   NewGenerator(st, code, WithConstellation(cons), WithEpochCache(cache)),
		"codeonly": NewGenerator(st, code),
	}
	for name, g := range gens {
		var buf EpochBuffer
		for tt := 0.0; tt < 86400; tt += 1801 {
			got, err := g.EpochInto(tt, &buf)
			if err != nil {
				t.Fatal(err)
			}
			want, err := g.EpochAt(tt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: t=%v: EpochInto diverged from EpochAt", name, tt)
			}
		}
	}
}

// TestMobileVisibilityMatchesAllAngles: a trajectory generator (whose
// ENU frame is rebuilt every epoch, not held) keeps exactly the
// satellites an all-angles pass from the true position keeps, in the
// same order and with the same elevation bits.
func TestMobileVisibilityMatchesAllAngles(t *testing.T) {
	start := geo.FromDegrees(-89, 10, 9000).ToECEF()
	traj := LinearTrajectory(start, geo.ENU{E: 250, N: 120, U: -0.1})
	st := Station{ID: "POLE", Pos: start}
	g := NewGenerator(st, DefaultConfig(8), WithTrajectory(traj))
	mask := g.Config().ElevMaskDeg * math.Pi / 180
	cons := orbit.DefaultConstellation()
	var es orbit.EpochState
	for tt := 0.0; tt < 86400; tt += 613 {
		ep, err := g.EpochAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		if err := cons.StateAt(tt, &es); err != nil {
			t.Fatal(err)
		}
		recv := traj(tt)
		type look struct {
			prn  int
			elev float64
		}
		var want []look
		for _, s := range es.Sats {
			if elev, _ := geo.ElevationAzimuth(recv, s.Pos); elev >= mask {
				want = append(want, look{s.Sat.PRN, elev})
			}
		}
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && want[j].elev > want[j-1].elev; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if len(ep.Obs) != len(want) {
			t.Fatalf("t=%v: %d observations, want %d", tt, len(ep.Obs), len(want))
		}
		for k, w := range want {
			o := ep.Obs[k]
			if o.PRN != w.prn || math.Float64bits(o.Elevation) != math.Float64bits(w.elev) {
				t.Fatalf("t=%v: obs %d = PRN %d elev %v, want PRN %d elev %v",
					tt, k, o.PRN, o.Elevation, w.prn, w.elev)
			}
		}
	}
}
