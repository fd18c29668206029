package trace

import (
	"math"
	"math/bits"
	"strconv"
)

// appendFixed3 appends v with exactly three decimals, byte for byte what
// strconv.AppendFloat(dst, v, 'f', 3, 64) appends, without strconv's
// arbitrary-precision path (which every fixed-precision 'f' call takes).
//
// A finite float64 is mant·2^e exactly. Its three-decimal rendering is
// round(mant·1000·2^e) thousandths, rounded half to even on the exact value
// — which is what strconv's decimal rounding does (the sign is printed
// separately, so -0 and negatives that round to zero keep their '-'). When
// e ≥ 0 the product is an integer; when e < 0 it is (mant·1000) >> -e with
// the shifted-out bits deciding the rounding. mant < 2^53, so mant·1000 <
// 2^63 always fits in a uint64; only the shift by a positive e can
// overflow (|v| from about 2^54 up), and those values, NaN and ±Inf go to
// strconv.
func appendFixed3(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	if exp == 0x7ff {
		return strconv.AppendFloat(dst, v, 'f', 3, 64) // NaN, ±Inf
	}
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	e := exp - 1075 // v = ±mant·2^e
	x := mant * 1000
	var q uint64 // |v| in thousandths, rounded half to even
	switch {
	case e >= 0:
		if bits.Len64(x)+e > 64 {
			return strconv.AppendFloat(dst, v, 'f', 3, 64)
		}
		q = x << uint(e)
	case e > -64:
		k := uint(-e)
		q = x >> k
		r := x & (1<<k - 1)
		half := uint64(1) << (k - 1)
		if r > half || (r == half && q&1 == 1) {
			q++
		}
	default:
		// x < 2^63 ≤ 2^(k-1): strictly below one half-thousandth.
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/1000, 10)
	f := q % 1000
	return append(dst, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}
