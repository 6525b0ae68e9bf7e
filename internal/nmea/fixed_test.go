package nmea

import (
	"math"
	"strconv"
	"testing"
)

// checkFixed fails t unless appendFixed(v, prec) is byte-identical to
// strconv.AppendFloat(v, 'f', prec, 64).
func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	got := string(appendFixed(nil, v, prec))
	want := strconv.FormatFloat(v, 'f', prec, 64)
	if got != want {
		t.Fatalf("appendFixed(%v [%#016x], %d) = %q, strconv %q", v, math.Float64bits(v), prec, got, want)
	}
}

// TestAppendFixedTies drives the formatter through exact binary ties,
// where half-to-even decides the last digit, and through the decimal
// near-ties NMEA fields hit, at every precision the encoders use.
func TestAppendFixedTies(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 0.125, 0.375, 2.5, 3.5, -2.5, 0.5, 1.5, -0.5,
		9.95, 99.95, 59.995, 59.99995, 59.999949999999, -0.05, 0.05, 0.15, 0.25, 1.005,
		5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
		math.Nextafter(1<<50, 0), 1 << 49, 123456789.0625,
		math.Inf(1), math.Inf(-1), math.NaN(), 1 << 50, -1e300, math.MaxFloat64,
	}
	for x := -800; x <= 800; x++ {
		vals = append(vals, float64(x)/16) // every x/16 is a tie at some precision
	}
	for _, v := range vals {
		for prec := 0; prec <= 4; prec++ {
			checkFixed(t, v, prec)
		}
	}
	// Spelled out: an exact tie rounds to the even digit, a decimal
	// near-tie follows the exact binary value (59.99995 is stored just
	// below the tie), and a negative value that rounds to zero keeps its
	// sign.
	for _, c := range []struct {
		v    float64
		prec int
		want string
	}{
		{0.125, 2, "0.12"}, {0.375, 2, "0.38"}, {2.5, 0, "2"}, {3.5, 0, "4"},
		{0.0625, 3, "0.062"}, {-0.0625, 3, "-0.062"}, {-0.04, 1, "-0.0"},
		{59.99995, 4, "59.9999"}, {59.99996, 4, "60.0000"}, {9.95, 1, "9.9"}, {99.95, 1, "100.0"},
	} {
		if got := string(appendFixed(nil, c.v, c.prec)); got != c.want {
			t.Errorf("appendFixed(%v, %d) = %q, want %q", c.v, c.prec, got, c.want)
		}
	}
}

// FuzzAppendFixed is the formatter's differential oracle: for arbitrary
// float64 bit patterns and precisions 0–4 its text must equal strconv's.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{0, 0.125, 2.5, 59.99995, -0.05, 5e-324, 1 << 50, math.NaN()} {
		f.Add(math.Float64bits(v), uint8(2))
	}
	f.Fuzz(func(t *testing.T, b uint64, p uint8) {
		checkFixed(t, math.Float64frombits(b), int(p%5))
	})
}
