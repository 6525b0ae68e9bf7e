package nmea

import (
	"math"
	"strconv"
)

// Allocation-free sentence encoders, the package's only renderer.
// AppendGGA/AppendRMC write into a caller-supplied buffer (append-style,
// like strconv.Append*); GGA and RMC wrap them. With a reused buffer the
// steady-state cost is zero allocations per sentence, which is what puts
// NMEA output on the fix engine's hot path.

const hexUpper = "0123456789ABCDEF"

// AppendGGA appends a $GPGGA sentence for f to dst and returns the
// extended buffer.
func AppendGGA(dst []byte, f Fix) []byte {
	dst = append(dst, '$')
	body := len(dst)
	dst = append(dst, "GPGGA,"...)
	dst = appendTimeField(dst, f.TimeOfDay)
	dst = append(dst, ',')
	dst = appendLatitude(dst, f.Pos.Lat)
	dst = append(dst, ',')
	dst = appendLongitude(dst, f.Pos.Lon)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(f.Quality), 10)
	dst = append(dst, ',')
	dst = appendPad2(dst, f.NumSats)
	dst = append(dst, ',')
	dst = appendFixed(dst, f.HDOP, 1)
	dst = append(dst, ',')
	dst = appendFixed(dst, f.Pos.Alt, 1)
	dst = append(dst, ",M,0.0,M,,"...)
	return appendChecksum(dst, body)
}

// AppendRMC appends a $GPRMC sentence for f to dst and returns the
// extended buffer.
func AppendRMC(dst []byte, f Fix) []byte {
	dst = append(dst, '$')
	body := len(dst)
	dst = append(dst, "GPRMC,"...)
	dst = appendTimeField(dst, f.TimeOfDay)
	if f.Quality == QualityInvalid {
		dst = append(dst, ",V,"...)
	} else {
		dst = append(dst, ",A,"...)
	}
	dst = appendLatitude(dst, f.Pos.Lat)
	dst = append(dst, ',')
	dst = appendLongitude(dst, f.Pos.Lon)
	dst = append(dst, ',')
	dst = appendFixed(dst, f.SpeedKnots, 1)
	dst = append(dst, ',')
	dst = appendFixed(dst, f.CourseDeg, 1)
	dst = append(dst, ",,,"...)
	return appendChecksum(dst, body)
}

// appendChecksum XORs dst[body:] and appends *HH.
func appendChecksum(dst []byte, body int) []byte {
	var c byte
	for _, b := range dst[body:] {
		c ^= b
	}
	return append(dst, '*', hexUpper[c>>4], hexUpper[c&0x0f])
}

// appendPad2 appends v with fmt's %02d semantics.
func appendPad2(dst []byte, v int) []byte {
	if v >= 0 && v < 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendZeroPadFloat appends v with fmt's %0W.Pf semantics for
// non-negative v: fixed precision, zero-padded on the left to width
// bytes. The digits are appended in place and shifted right if padding is
// needed, so no temporary buffer is involved.
func appendZeroPadFloat(dst []byte, v float64, width, prec int) []byte {
	start := len(dst)
	dst = appendFixed(dst, v, prec)
	if n := len(dst) - start; n < width {
		pad := width - n
		for i := 0; i < pad; i++ {
			dst = append(dst, '0')
		}
		copy(dst[start+pad:], dst[start:len(dst)-pad])
		for i := 0; i < pad; i++ {
			dst[start+i] = '0'
		}
	}
	return dst
}

// roundsTo60 reports whether v, printed with prec decimals, would read
// 60: the carry case of a seconds or minutes field.
func roundsTo60(v float64, prec int) bool {
	n, _, ok := scaledRound(v, prec)
	return ok && n == 60*pow10[prec]
}

// appendTimeField renders hhmmss.ss from seconds of day. Seconds that
// round to 60.00 carry into the minutes and hours, wrapping the day.
func appendTimeField(dst []byte, t float64) []byte {
	t = math.Mod(t, 86400)
	if t < 0 {
		t += 86400
	}
	h := int(t) / 3600
	m := (int(t) % 3600) / 60
	s := t - float64(h*3600+m*60)
	if roundsTo60(s, 2) {
		s = 0
		if m++; m == 60 {
			m = 0
			if h++; h == 24 {
				h = 0
			}
		}
	}
	dst = appendPad2(dst, h)
	dst = appendPad2(dst, m)
	return appendZeroPadFloat(dst, s, 5, 2)
}

// appendLatitude renders ddmm.mmmm,H.
func appendLatitude(dst []byte, rad float64) []byte {
	hemi := byte('N')
	if rad < 0 {
		hemi = 'S'
		rad = -rad
	}
	return append(appendDegMin(dst, rad, 2), ',', hemi)
}

// appendLongitude renders dddmm.mmmm,H.
func appendLongitude(dst []byte, rad float64) []byte {
	hemi := byte('E')
	if rad < 0 {
		hemi = 'W'
		rad = -rad
	}
	return append(appendDegMin(dst, rad, 3), ',', hemi)
}

// appendDegMin renders a non-negative angle as whole degrees zero-padded
// to width digits followed by mm.mmmm minutes. Minutes that round to
// 60.0000 carry into the degrees.
func appendDegMin(dst []byte, rad float64, width int) []byte {
	deg := rad * 180 / math.Pi
	d := math.Floor(deg)
	minutes := (deg - d) * 60
	if roundsTo60(minutes, 4) {
		d, minutes = d+1, 0
	}
	dst = appendZeroPadFloat(dst, d, width, 0)
	return appendZeroPadFloat(dst, minutes, 7, 4)
}
