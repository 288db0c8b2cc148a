package dbf

import (
	"math"
	"math/big"
	"math/bits"

	"rtoffload/internal/rtime"
)

// u128 is an unsigned 128-bit integer: the burst numerator of one
// demand over its own period. Every numerator is a product of two
// non-negative int64 parameters (below 2^126) or the sum of two such
// products (below 2^127), so u128 holds it without overflow and the
// Analyzer needs no big.Int per demand.
type u128 struct{ hi, lo uint64 }

// mul128 returns a·b for non-negative a and b; the product cannot wrap.
func mul128(a, b int64) u128 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return u128{hi: hi, lo: lo}
}

// add returns x+y. Both operands are products of two non-negative
// int64s, so the sum stays below 2^127 and the carry out of hi is
// always zero.
func (x u128) add(y u128) u128 {
	lo, c := bits.Add64(x.lo, y.lo, 0)
	hi, _ := bits.Add64(x.hi, y.hi, c)
	return u128{hi: hi, lo: lo}
}

// max returns the larger of x and y.
func (x u128) max(y u128) u128 {
	if x.hi > y.hi || (x.hi == y.hi && x.lo >= y.lo) {
		return x
	}
	return y
}

// setBig sets z to x, using tmp as scratch, and returns z. Neither
// allocates once the two have grown to two words.
func (x u128) setBig(z, tmp *big.Int) *big.Int {
	if x.hi == 0 {
		return z.SetUint64(x.lo)
	}
	z.SetUint64(x.hi)
	z.Lsh(z, 64)
	return z.Add(z, tmp.SetUint64(x.lo))
}

// add64 adds two non-negative int64s, reporting overflow.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if s < 0 {
		return 0, false
	}
	return s, true
}

// mulDiv64 returns ⌊a·b/den⌋ for non-negative a, b and positive den
// with a 128-bit intermediate, so the product itself can never wrap;
// ok=false when the quotient exceeds int64 range.
func mulDiv64(a, b, den int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(den) {
		return 0, false
	}
	q, _ := bits.Div64(hi, lo, uint64(den))
	if q > math.MaxInt64 {
		return 0, false
	}
	return int64(q), true
}

// mulDur returns k·c saturated at the int64 ceiling, for k ≥ 0 and
// c ≥ 0. Saturation is conservative in demand arithmetic: an
// overflowing demand reads as "infinite", so a window that would have
// wrapped into a feasible-looking value instead fails the test.
func mulDur(c rtime.Duration, k int64) rtime.Duration {
	if k <= 0 || c <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(k), uint64(c))
	if hi != 0 || lo > math.MaxInt64 {
		return rtime.Duration(math.MaxInt64)
	}
	return rtime.Duration(lo)
}

// addDur returns a+b saturated at the int64 ceiling, for non-negative
// a and b.
func addDur(a, b rtime.Duration) rtime.Duration {
	s := a + b
	if s < 0 {
		return rtime.Duration(math.MaxInt64)
	}
	return s
}
