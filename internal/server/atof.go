package server

import (
	"math"
	"math/big"
	"math/bits"
)

// Decimal-to-float64 conversion by the Eisel–Lemire algorithm (Daniel
// Lemire, "Number Parsing at a Gigabyte per Second", SPE 51(8), 2021).
// Given a decimal mantissa of at most 19 digits and a power of ten it
// either returns the correctly rounded float64 — the value
// strconv.ParseFloat returns for the same decimal — or reports that it
// cannot decide, in which case the caller must fall back to strconv.

const (
	// pow10MinExp and pow10MaxExp bound the table. A mantissa of at
	// most 19 digits times 10^e is below the smallest normal float64
	// for every e < -342 and above the largest float64 for every
	// e > 308; both ends are left to strconv.
	pow10MinExp = -342
	pow10MaxExp = 308
)

// pow10Table holds, for each e in [pow10MinExp, pow10MaxExp], the 128
// most significant bits of 10^e (top bit set), rounded down, as
// {low 64 bits, high 64 bits}.
var pow10Table = buildPow10Table()

func buildPow10Table() [][2]uint64 {
	t := make([][2]uint64, pow10MaxExp-pow10MinExp+1)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1))
	v, p := new(big.Int), new(big.Int)
	for e := pow10MinExp; e <= pow10MaxExp; e++ {
		abs := e
		if abs < 0 {
			abs = -abs
		}
		p.Exp(big.NewInt(10), big.NewInt(int64(abs)), nil)
		if e >= 0 {
			// Normalize 10^e to exactly 128 bits, truncating.
			if n := p.BitLen(); n > 128 {
				v.Rsh(p, uint(n-128))
			} else {
				v.Lsh(p, uint(128-n))
			}
		} else {
			// ⌊2^(b+127) / 10^|e|⌋ with b = bitlen(10^|e|) lies in
			// (2^127, 2^128): 10^|e| is not a power of two.
			v.Lsh(big.NewInt(1), uint(p.BitLen()+127))
			v.Quo(v, p)
		}
		lo := new(big.Int).And(v, mask).Uint64()
		hi := new(big.Int).Rsh(v, 64).Uint64()
		t[e-pow10MinExp] = [2]uint64{lo, hi}
	}
	return t
}

// eiselLemire64 returns man·10^exp10 (negated when neg) rounded to the
// nearest float64, ties to even. ok is false when the table does not
// cover exp10, when the 128-bit product cannot settle the rounding (the
// half-way ambiguity), or when the result is subnormal or overflows.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10MinExp || exp10 > pow10MaxExp {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10MinExp]

	// Normalize the mantissa; 217706·e>>16 is ⌊log2(10^e)⌋ over the
	// table's range.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// 64×64 product with the high half of 10^e; widen to the low half
	// only when the low 9 bits of the high word cannot absorb the
	// truncation error.
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Keep 54 bits, then round to 53.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false // exactly half-way as far as 128 bits can tell
	}
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 == 0 (wrapped, subnormal) or ≥ 0x7FF (Inf): not normal.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
