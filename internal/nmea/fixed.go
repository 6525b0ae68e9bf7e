package nmea

import (
	"math"
	"math/bits"
	"strconv"
)

// Exact fixed-point float formatting. strconv.AppendFloat with the 'f'
// verb and an explicit precision always takes the multi-precision
// decimal route (bigFtoa), which dominated the cost of a sentence. For
// the few decimals NMEA fields carry, v·10^prec fits in 128 bits and can
// be rounded exactly with one 64×64 multiply, so the same text comes out
// of integer arithmetic.

// pow10 holds 10^prec for the precisions scaledRound handles.
var pow10 = [...]uint64{1, 10, 100, 1000, 10000}

// exactLimit bounds the magnitudes scaledRound handles: below 2^50,
// v·10^4 stays under 2^64.
const exactLimit = 1 << 50

// scaledRound returns |v|·10^prec rounded half to even — the rounding
// strconv applies to the exact binary value — and v's sign bit, for prec
// in [0, 4]. ok is false when v is NaN, infinite or |v| ≥ 2^50; those
// values are left to strconv.
func scaledRound(v float64, prec int) (n uint64, neg, ok bool) {
	if !(math.Abs(v) < exactLimit) {
		return 0, false, false
	}
	b := math.Float64bits(v)
	neg = b>>63 != 0
	mant := b & (1<<52 - 1)
	exp := int(b>>52) & 0x7ff
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit, same scale as the smallest normal
	} else {
		mant |= 1 << 52
	}
	// |v| = mant·2^-shift; shift ≥ 3 because |v| < 2^50.
	shift := uint(1075 - exp)
	hi, lo := bits.Mul64(mant, pow10[prec])
	if shift >= 128 {
		// The product is below 2^67, so it is less than half a unit.
		return 0, neg, true
	}
	// Split the 128-bit product at bit shift into the quotient n and the
	// remainder, and compare the remainder with half a unit.
	var remHi, remLo, halfHi, halfLo uint64
	if shift < 64 {
		n = lo>>shift | hi<<(64-shift)
		remLo = lo & (1<<shift - 1)
		halfLo = 1 << (shift - 1)
	} else {
		n = hi >> (shift - 64)
		remHi, remLo = hi&(1<<(shift-64)-1), lo
		if shift == 64 {
			halfLo = 1 << 63
		} else {
			halfHi = 1 << (shift - 65)
		}
	}
	if remHi > halfHi || remHi == halfHi && (remLo > halfLo || remLo == halfLo && n&1 == 1) {
		n++
	}
	return n, neg, true
}

// appendFixed appends v formatted like strconv.AppendFloat(dst, v, 'f',
// prec, 64), byte for byte, including the sign of a negative value that
// rounds to zero.
func appendFixed(dst []byte, v float64, prec int) []byte {
	n, neg, ok := scaledRound(v, prec)
	if !ok {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if neg {
		dst = append(dst, '-')
	}
	return appendScaled(dst, n, prec)
}

// appendScaled appends n/10^prec with exactly prec decimals. Digits are
// produced right to left by constant division, which compiles to
// multiplies.
func appendScaled(dst []byte, n uint64, prec int) []byte {
	var buf [24]byte // 20 digits of a uint64, the point, slack
	i := len(buf)
	for k := 0; k < prec; k++ {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}
