package joblog

import (
	"math"
	"math/bits"
)

// parseNumeric is the fast path in front of strconv.ParseFloat(s, 64):
// it either returns the float64 strconv would, to the bit, or declines
// (ok false) and the caller asks strconv — so every value and every
// error text stays strconv's.
//
// It takes plain decimals only: an optional sign, digits with an
// optional fraction, an optional exponent, at most 19 significant digits
// (what a uint64 holds exactly). One pass yields the decimal mantissa
// and exponent; a mantissa below 2^53 scaled by at most 10^22 is one
// exact float operation, and everything else goes to Eisel–Lemire.
// Declined: the empty string, hex, '_', Inf and NaN, a 20th significant
// digit, an exponent outside the power-of-ten table, the cases
// Eisel–Lemire leaves undecided, and any byte not named above.
func parseNumeric[S string | []byte](s S) (x float64, ok bool) {
	i, n := 0, len(s)
	if n == 0 {
		return 0, false
	}
	neg := s[0] == '-'
	if neg || s[0] == '+' {
		i = 1
	}

	// Digits accumulate unchecked — mant may wrap — and are counted
	// afterwards: from the first non-zero one on they are significant,
	// and more than a uint64 holds is declined before mant is read.
	var mant uint64
	start := i
	for i < n && s[i] == '0' {
		i++
	}
	first := i // the first significant digit, if the integer part has one
	i, mant = scanDigits(s, i, mant)
	digits, sig := i-start, i-first
	exp10 := 0
	if i < n && s[i] == '.' {
		i++
		start = i
		if sig == 0 {
			for i < n && s[i] == '0' {
				i++
			}
		}
		first = i
		i, mant = scanDigits(s, i, mant)
		digits += i - start
		sig += i - first
		exp10 = start - i
	}
	if digits == 0 || sig > maxSigDigits {
		return 0, false
	}
	if i < n && s[i]|0x20 == 'e' {
		i++
		esign := 1
		if i < n && (s[i] == '+' || s[i] == '-') {
			if s[i] == '-' {
				esign = -1
			}
			i++
		}
		if i == n {
			return 0, false
		}
		e := 0
		for ; i < n; i++ {
			d := s[i] - '0'
			if d > 9 {
				return 0, false
			}
			if e < 10000 {
				e = e*10 + int(d)
			}
		}
		exp10 += esign * e
	}
	if i < n {
		return 0, false
	}

	switch {
	case mant == 0:
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	case mant < 1<<53 && -maxExactPow10 <= exp10 && exp10 <= maxExactPow10:
		// Both operands are exact float64s, so the one rounding of the
		// product or quotient is the correct rounding of the decimal.
		x = float64(mant)
		if neg {
			x = -x
		}
		if exp10 < 0 {
			return x / exactPow10[-exp10], true
		}
		return x * exactPow10[exp10], true
	case exp10 < pow10Min || exp10 > pow10Max:
		return 0, false
	}
	return eiselLemire(mant, exp10, neg)
}

// scanDigits appends the run of decimal digits at s[i:] to mant and
// returns where the run ends. Eight digits at a time go through one
// 64-bit word — one multiply on the chain from digit to digit in place of
// eight.
func scanDigits[S string | []byte](s S, i int, mant uint64) (int, uint64) {
	for ; len(s)-i >= 8; i += 8 {
		b := s[i : i+8] // one bounds check, one load
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		// Every byte is 0x30..0x39: its high nibble is 3, and still 3
		// with 6 added.
		if w&0xF0F0F0F0F0F0F0F0|(w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break
		}
		// Pairs of digits, then pairs of pairs, then the two halves
		// (Lemire, "Quickly parsing eight digits").
		w -= 0x3030303030303030
		w = w*10 + w>>8
		w = (w&0x000000FF000000FF*(100+1000000<<32) + w>>16&0x000000FF000000FF*(1+10000<<32)) >> 32
		mant = mant*100000000 + w
	}
	for ; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			break
		}
		mant = mant*10 + uint64(d)
	}
	return i, mant
}

// maxSigDigits is how many decimal digits always fit a uint64.
const maxSigDigits = 19

// maxExactPow10 is the largest power of ten a float64 holds exactly.
const maxExactPow10 = 22

var exactPow10 = [maxExactPow10 + 1]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire converts mant·10^exp10 (mant non-zero, exp10 inside the
// table) to the nearest float64, or reports that 128 bits of the power of
// ten cannot decide the rounding. It is the algorithm of strconv's
// eiselLemire64 (https://nigeltao.github.io/blog/2020/eisel-lemire.html),
// step for step, over pow10Mantissa.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	// Normalise: the product of two numbers with their top bits set has
	// its own top bit in one of two places.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	pow := &pow10Mantissa[exp10-pow10Min]
	hi, lo := bits.Mul64(mant, pow[0])

	// The low 9 bits of hi are what rounding to 54 bits discards. If
	// they are all ones and the truncated part of the power of ten
	// could carry into them, bring in the low word.
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		yhi, ylo := bits.Mul64(mant, pow[1])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+mant < mant {
			return 0, false // still undecided at 128 bits
		}
		hi, lo = mhi, mlo
	}

	// Down to 54 bits: 53 and the rounding bit.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Exactly half-way as far as these bits show: round-to-even needs
	// the digits that were dropped.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}

	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// Subnormal or overflowing results are strconv's to round. (No
	// 19-digit mantissa reaches either inside the table's range; the
	// check keeps the port independent of that range.)
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
