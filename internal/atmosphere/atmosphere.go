// Package atmosphere models the signal-path delays a GPS pseudo-range
// picks up between satellite and receiver: ionospheric delay (Klobuchar-
// style single-layer model), tropospheric delay (Saastamoinen-style zenith
// delay with a cosecant mapping), and elevation-dependent multipath noise.
//
// These supply the satellite-dependent error εᵢˢ of paper eq. 3-5. Real
// receivers correct most of each delay with broadcast models; what matters
// to the positioning algorithms is the *residual* after correction, so
// Residual* helpers scale the modeled delay by a configurable remainder
// fraction.
package atmosphere

import (
	"math"
)

// Model parameters with sensible mid-latitude L1 defaults.
const (
	// ZenithIonoQuietM is the quiet-time zenith ionospheric delay in
	// meters (night-time floor of the Klobuchar model, ≈5 ns).
	ZenithIonoQuietM = 1.5
	// ZenithIonoPeakM is the additional diurnal peak amplitude in meters.
	ZenithIonoPeakM = 6.0
	// IonoPeakLocalTime is the local solar time of the ionospheric peak
	// (14:00, the standard Klobuchar phase) in seconds of day.
	IonoPeakLocalTime = 50400.0
	// IonoPeriod is the Klobuchar cosine period in seconds (the model
	// uses a fixed 32 h unless broadcast says otherwise; we keep 24 h
	// periodicity for a self-consistent simulated day).
	IonoPeriod = 86400.0
	// ZenithTropoSeaLevelM is the total zenith tropospheric delay at sea
	// level in meters (hydrostatic + wet, Saastamoinen magnitude).
	ZenithTropoSeaLevelM = 2.4
	// TropoScaleHeightM is the exponential decay height of the
	// tropospheric delay with station altitude.
	TropoScaleHeightM = 8000.0
)

// IonoDelay returns the slant ionospheric group delay in meters for a
// signal at elevation elev (radians) observed at local solar time
// localTime (seconds of day): IonoSlant(IonoVertical(localTime), elev).
func IonoDelay(elev, localTime float64) float64 {
	return IonoSlant(IonoVertical(localTime), elev)
}

// IonoVertical returns the diurnal vertical ionospheric delay in meters
// at local solar time localTime (seconds of day): the Klobuchar
// half-cosine, a quiet floor at night and a peak in the early afternoon.
// It depends on time and longitude only, so a receiver computes it once
// per epoch for all its satellites.
func IonoVertical(localTime float64) float64 {
	x := 2 * math.Pi * (math.Mod(localTime, IonoPeriod) - IonoPeakLocalTime) / IonoPeriod
	vertical := ZenithIonoQuietM
	if math.Cos(x) > 0 {
		vertical += ZenithIonoPeakM * math.Cos(x)
	}
	return vertical
}

// IonoSlant maps a vertical ionospheric delay to elevation elev
// (radians) with the Klobuchar obliquity F = 1 + 16·(0.53 − E/π)³, E in
// semicircles — here expressed directly in radians.
func IonoSlant(vertical, elev float64) float64 {
	if elev < 0 {
		elev = 0
	}
	eSemi := elev / math.Pi
	f := 1 + 16*math.Pow(0.53-eSemi, 3)
	if f < 1 {
		f = 1
	}
	return vertical * f
}

// TropoDelay returns the slant tropospheric delay in meters at elevation
// elev (radians) for a station at altitude alt meters:
// TropoSlant(TropoZenith(alt), elev).
func TropoDelay(elev, alt float64) float64 {
	return TropoSlant(TropoZenith(alt), elev)
}

// TropoZenith returns the zenith tropospheric delay in meters at
// altitude alt meters, decaying exponentially with height. It depends on
// the station only, so a static receiver computes it once.
func TropoZenith(alt float64) float64 {
	return ZenithTropoSeaLevelM * math.Exp(-math.Max(alt, 0)/TropoScaleHeightM)
}

// TropoSlant maps a zenith tropospheric delay to elevation elev
// (radians) with a cosecant mapping floored at 3° to avoid the
// singularity at the horizon.
func TropoSlant(zenith, elev float64) float64 {
	minElev := 3 * math.Pi / 180
	if elev < minElev {
		elev = minElev
	}
	return zenith / math.Sin(elev)
}

// MultipathSigma returns the standard deviation (meters) of multipath
// error at elevation elev, using the standard exponential elevation
// profile: strong near the horizon, negligible at zenith.
func MultipathSigma(elev float64) float64 {
	const (
		sigmaZero = 1.2  // meters at the horizon
		decay     = 0.25 // radians e-folding
	)
	if elev < 0 {
		elev = 0
	}
	return sigmaZero * math.Exp(-elev/decay)
}

// ResidualIono returns the post-correction ionospheric residual: the
// broadcast Klobuchar model removes roughly half the delay, so a remainder
// fraction around 0.5 is realistic; the sign/scale factor u in [-1, 1]
// captures how far the true ionosphere deviates from the broadcast model
// for this satellite pass.
func ResidualIono(elev, localTime, remainder, u float64) float64 {
	return IonoDelay(elev, localTime) * remainder * u
}

// ResidualTropo returns the post-correction tropospheric residual
// analogous to ResidualIono; tropospheric models are good, so remainder
// fractions around 0.1 are realistic.
func ResidualTropo(elev, alt, remainder, u float64) float64 {
	return TropoDelay(elev, alt) * remainder * u
}
