package orbit

import (
	"math"
	"math/rand"
	"testing"

	"gpsdl/internal/geo"
)

// allAnglesVisible is the reference visibility pass: look angles for
// every satellite through the package-level geo.ElevationAzimuth (a
// fresh frame per satellite), the mask test, then a swap insertion sort
// by descending elevation — no up-component cull anywhere.
func allAnglesVisible(st *EpochState, receiver geo.ECEF, elevMask float64) []InView {
	var out []InView
	for i := range st.Sats {
		s := &st.Sats[i]
		elev, azim := geo.ElevationAzimuth(receiver, s.Pos)
		if elev < elevMask {
			continue
		}
		out = append(out, InView{Sat: s.Sat, Pos: s.Pos, Elevation: elev, Azimuth: azim, State: s})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Elevation > out[j-1].Elevation; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// sameView reports whether two visibility lists hold the same
// satellites in the same order with the same float bits.
func sameView(t *testing.T, label string, got, want []InView) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d satellites, want %d", label, len(got), len(want))
		return false
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Sat != w.Sat || g.Pos != w.Pos || g.State != w.State ||
			math.Float64bits(g.Elevation) != math.Float64bits(w.Elevation) ||
			math.Float64bits(g.Azimuth) != math.Float64bits(w.Azimuth) {
			t.Errorf("%s: entry %d = PRN %d elev %v azim %v, want PRN %d elev %v azim %v",
				label, k, g.Sat.PRN, g.Elevation, g.Azimuth, w.Sat.PRN, w.Elevation, w.Azimuth)
			return false
		}
	}
	return true
}

// TestVisibleIntoMatchesAllAngles is the cull's exactness property: over
// the default constellation across a day, for receivers at the poles, on
// the equator and at random places, 0–10 km up, and for masks from 0° to
// 30°, VisibleInto (one reused buffer), VisibleFromState and Visible
// return exactly the all-angles list, and nothing below the mask
// survives.
func TestVisibleIntoMatchesAllAngles(t *testing.T) {
	cons := DefaultConstellation()
	rnd := rand.New(rand.NewSource(16))
	receivers := []geo.ECEF{
		geo.FromDegrees(90, 0, 0).ToECEF(),
		geo.FromDegrees(-90, 0, 10000).ToECEF(),
		geo.FromDegrees(0, 0, 0).ToECEF(),
		geo.FromDegrees(0, -120, 10000).ToECEF(),
	}
	for len(receivers) < 16 {
		lat := math.Asin(2*rnd.Float64()-1) * 180 / math.Pi
		lon := 360*rnd.Float64() - 180
		receivers = append(receivers, geo.FromDegrees(lat, lon, 10000*rnd.Float64()).ToECEF())
	}
	masks := []float64{0, 0.5, 7, 15, 30}
	var st EpochState
	var buf []InView
	for tt := 0.0; tt < 86400; tt += 977 {
		if err := cons.StateAt(tt, &st); err != nil {
			t.Fatal(err)
		}
		for ri, recv := range receivers {
			frame := geo.NewENUFrame(recv)
			for _, deg := range masks {
				mask := deg * math.Pi / 180
				want := allAnglesVisible(&st, recv, mask)
				buf = VisibleInto(buf, &st, &frame, mask)
				if !sameView(t, "VisibleInto", buf, want) ||
					!sameView(t, "VisibleFromState", VisibleFromState(&st, recv, mask), want) {
					t.Fatalf("t=%v receiver %d mask %v°", tt, ri, deg)
				}
				for _, v := range buf {
					if v.Elevation < mask {
						t.Fatalf("t=%v receiver %d: PRN %d at %v rad survived mask %v°",
							tt, ri, v.Sat.PRN, v.Elevation, deg)
					}
				}
			}
		}
	}
	recv := receivers[4]
	vis, err := cons.Visible(recv, 43210, 7*math.Pi/180)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.StateAt(43210, &st); err != nil {
		t.Fatal(err)
	}
	want := allAnglesVisible(&st, recv, 7*math.Pi/180)
	for k := range want {
		want[k].State, vis[k].State = nil, nil // Visible's state is its own
	}
	sameView(t, "Visible", vis, want)
}

// TestVisibleIntoCullKeepsNaNGeometry: the cull is exact for
// non-finite positions too. A satellite whose up component is −Inf but
// whose east/north components are NaN has a NaN elevation, which the
// mask test (elev < mask is false) keeps; the cull must keep it as well.
func TestVisibleIntoCullKeepsNaNGeometry(t *testing.T) {
	recv := geo.FromDegrees(0, 0, 0).ToECEF()
	st := EpochState{Sats: []SatState{
		{Sat: Satellite{PRN: 1}, Pos: geo.ECEF{X: math.Inf(-1)}},
		{Sat: Satellite{PRN: 2}, Pos: geo.ECEF{X: -recv.X}},
	}}
	frame := geo.NewENUFrame(recv)
	const mask = 7 * math.Pi / 180
	want := allAnglesVisible(&st, recv, mask)
	if len(want) != 1 || want[0].Sat.PRN != 1 || !math.IsNaN(want[0].Elevation) {
		t.Fatalf("reference kept %+v, want only PRN 1 at NaN elevation", want)
	}
	sameView(t, "VisibleInto", VisibleInto(nil, &st, &frame, mask), want)
}
