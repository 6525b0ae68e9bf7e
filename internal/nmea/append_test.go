package nmea

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpsdl/internal/geo"
)

// trickyFix is one edge case of the encoder. gga and rmc, when set, are
// the expected sentences for a fix where the fmt oracle is wrong: it
// prints a value that rounds to 60 as 60.00 seconds or 60.0000 minutes,
// where the encoder carries into the next field.
type trickyFix struct {
	f        Fix
	gga, rmc string
}

// trickyFixes covers the formatting edge cases where a hand-rolled
// encoder could drift from fmt: zero fields, hemisphere signs, rounding
// at field boundaries, padding widths, negative altitude, day wrap,
// non-finite values, and the seconds and minutes carries.
func trickyFixes() []trickyFix {
	return []trickyFix{
		{f: Fix{}},
		{f: sampleFix()},
		{
			f:   Fix{TimeOfDay: 86399.999, Pos: lla(89.99999, 179.99999, -12.34), Quality: QualityDGPS, NumSats: 12, HDOP: 9.96},
			gga: "$GPGGA,000000.00,8959.9994,N,17959.9994,E,2,12,10.0,-12.3,M,0.0,M,,*7E", rmc: "$GPRMC,000000.00,A,8959.9994,N,17959.9994,E,0.0,0.0,,,*3D",
		},
		{f: Fix{TimeOfDay: -3600, Pos: lla(-0.00001, -0.00001, 0.04), NumSats: 4, HDOP: 99.95}},
		{f: Fix{TimeOfDay: 86400 + 3661.005, Pos: lla(-89.5, -179.5, 8848.86), Quality: QualityGPS, NumSats: 10, HDOP: 1.05}},
		{f: Fix{TimeOfDay: 59.995, Pos: lla(0.5, 0.5, 0), NumSats: 9, SpeedKnots: 0.05, CourseDeg: 359.95}},
		{
			f:   Fix{TimeOfDay: 3599.999, Pos: lla(45.999999, 9.999999, 0.049), Quality: QualityGPS, NumSats: 100, HDOP: 0.549},
			gga: "$GPGGA,010000.00,4559.9999,N,00959.9999,E,1,100,0.5,0.0,M,0.0,M,,*61", rmc: "$GPRMC,010000.00,A,4559.9999,N,00959.9999,E,0.0,0.0,,,*3A",
		},
		{f: Fix{TimeOfDay: 43200, Pos: lla(0, 0, math.Inf(1)), HDOP: math.NaN()}},
		{f: Fix{TimeOfDay: 1.25, Pos: lla(1.0/3, -1.0/3, -0.05), NumSats: 7, SpeedKnots: 123.456, CourseDeg: 0.04}},
		{
			f:   Fix{TimeOfDay: 7200, Pos: lla(45.9999999, -9.9999999, 35), Quality: QualityGPS, NumSats: 8, HDOP: 1.2},
			gga: "$GPGGA,020000.00,4600.0000,N,01000.0000,W,1,08,1.2,35.0,M,0.0,M,,*72", rmc: "$GPRMC,020000.00,A,4600.0000,N,01000.0000,W,0.0,0.0,,,*20",
		},
		{
			f:   Fix{TimeOfDay: 45296.999, Pos: lla(-0.9999999, 179.9999999, 0), Quality: QualityGPS, NumSats: 6, HDOP: 2},
			gga: "$GPGGA,123457.00,0100.0000,S,18000.0000,E,1,06,2.0,0.0,M,0.0,M,,*4B", rmc: "$GPRMC,123457.00,A,0100.0000,S,18000.0000,E,0.0,0.0,,,*20",
		},
	}
}

// The fmt.Sprintf renderer below is the differential oracle for
// AppendGGA and AppendRMC.

// sprintfGGA renders a $GPGGA sentence with fmt.
func sprintfGGA(f Fix) string {
	latStr, latHemi := latitude(f.Pos.Lat)
	lonStr, lonHemi := longitude(f.Pos.Lon)
	body := fmt.Sprintf("GPGGA,%s,%s,%s,%s,%s,%d,%02d,%.1f,%.1f,M,0.0,M,,",
		timeField(f.TimeOfDay), latStr, latHemi, lonStr, lonHemi,
		int(f.Quality), f.NumSats, f.HDOP, f.Pos.Alt)
	return frame(body)
}

// sprintfRMC renders a $GPRMC sentence with fmt (date fields blank: the
// simulation clock carries seconds of day, not calendar dates).
func sprintfRMC(f Fix) string {
	latStr, latHemi := latitude(f.Pos.Lat)
	lonStr, lonHemi := longitude(f.Pos.Lon)
	status := "A"
	if f.Quality == QualityInvalid {
		status = "V"
	}
	body := fmt.Sprintf("GPRMC,%s,%s,%s,%s,%s,%s,%.1f,%.1f,,,",
		timeField(f.TimeOfDay), status, latStr, latHemi, lonStr, lonHemi,
		f.SpeedKnots, f.CourseDeg)
	return frame(body)
}

// frame wraps a sentence body with $ and *checksum.
func frame(body string) string {
	return fmt.Sprintf("$%s*%02X", body, Checksum(body))
}

// timeField renders hhmmss.ss from seconds of day.
func timeField(t float64) string {
	t = math.Mod(t, 86400)
	if t < 0 {
		t += 86400
	}
	h := int(t) / 3600
	m := (int(t) % 3600) / 60
	s := t - float64(h*3600+m*60)
	return fmt.Sprintf("%02d%02d%05.2f", h, m, s)
}

// latitude renders ddmm.mmmm plus hemisphere.
func latitude(rad float64) (string, string) {
	hemi := "N"
	if rad < 0 {
		hemi = "S"
		rad = -rad
	}
	deg := rad * 180 / math.Pi
	d := math.Floor(deg)
	minutes := (deg - d) * 60
	return fmt.Sprintf("%02.0f%07.4f", d, minutes), hemi
}

// longitude renders dddmm.mmmm plus hemisphere.
func longitude(rad float64) (string, string) {
	hemi := "E"
	if rad < 0 {
		hemi = "W"
		rad = -rad
	}
	deg := rad * 180 / math.Pi
	d := math.Floor(deg)
	minutes := (deg - d) * 60
	return fmt.Sprintf("%03.0f%07.4f", d, minutes), hemi
}

func lla(latDeg, lonDeg, alt float64) geo.LLA {
	return geo.LLA{Lat: latDeg * math.Pi / 180, Lon: lonDeg * math.Pi / 180, Alt: alt}
}

func TestAppendMatchesSprintf(t *testing.T) {
	var buf []byte
	for i, tf := range trickyFixes() {
		wantGGA, wantRMC := tf.gga, tf.rmc
		if wantGGA == "" {
			wantGGA, wantRMC = sprintfGGA(tf.f), sprintfRMC(tf.f)
		}
		buf = AppendGGA(buf[:0], tf.f)
		if got := string(buf); got != wantGGA {
			t.Errorf("tricky fix %d GGA:\n  got  %s\n  want %s", i, got, wantGGA)
		}
		buf = AppendRMC(buf[:0], tf.f)
		if got := string(buf); got != wantRMC {
			t.Errorf("tricky fix %d RMC:\n  got  %s\n  want %s", i, got, wantRMC)
		}
	}
	var fixes []Fix
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		fixes = append(fixes, Fix{
			TimeOfDay:  r.Float64()*2*86400 - 86400,
			Pos:        lla(r.Float64()*180-90, r.Float64()*360-180, r.Float64()*20000-1000),
			Quality:    FixQuality(r.Intn(3)),
			NumSats:    r.Intn(32),
			HDOP:       r.Float64() * 50,
			SpeedKnots: r.Float64() * 200,
			CourseDeg:  r.Float64() * 360,
		})
	}
	for i, f := range fixes {
		buf = AppendGGA(buf[:0], f)
		if got, want := string(buf), sprintfGGA(f); got != want {
			t.Errorf("fix %d GGA:\n  append  %s\n  sprintf %s", i, got, want)
		}
		buf = AppendRMC(buf[:0], f)
		if got, want := string(buf), sprintfRMC(f); got != want {
			t.Errorf("fix %d RMC:\n  append  %s\n  sprintf %s", i, got, want)
		}
	}
}

func TestAppendZeroAlloc(t *testing.T) {
	f := sampleFix()
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendGGA(buf[:0], f)
		buf = AppendRMC(buf[:0], f)
	}); n != 0 {
		t.Errorf("Append encoders allocate %v times per sentence pair, want 0", n)
	}
}

func BenchmarkAppendGGA(b *testing.B) {
	f := sampleFix()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendGGA(buf[:0], f)
	}
	_ = buf
}

func BenchmarkAppendRMC(b *testing.B) {
	f := sampleFix()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRMC(buf[:0], f)
	}
	_ = buf
}
