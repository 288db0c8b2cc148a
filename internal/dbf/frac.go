package dbf

import (
	"cmp"
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

// Frac is an exact fraction Num/Den of int64s with Den > 0, such as a
// task's Theorem-3 weight. The zero Frac (Den 0) is no fraction.
type Frac struct{ Num, Den int64 }

// NewFrac returns n/d in lowest terms, for n ≥ 0 and d > 0.
func NewFrac(n, d int64) Frac {
	g := int64(rtime.GCD(rtime.Duration(n), rtime.Duration(d)))
	return Frac{Num: n / g, Den: d / g}
}

// Float64 returns the float64 nearest f, rounding exactly as
// big.Rat.Float64 does: when both parts are exact in a float64 the
// IEEE division is correctly rounded, and larger parts take the
// big.Rat path.
func (f Frac) Float64() float64 {
	const exact = 1 << 53
	if -exact <= f.Num && f.Num <= exact && f.Den <= exact {
		return float64(f.Num) / float64(f.Den) //rtlint:allow floatexact -- exact→float handoff of a Theorem-3 weight to the float64 MCKP
	}
	x, _ := new(big.Rat).SetFrac64(f.Num, f.Den).Float64() //rtlint:allow floatexact -- exact→float handoff of a Theorem-3 weight to the float64 MCKP
	return x
}

// Cmp compares f and g exactly, returning −1, 0 or +1; both
// denominators must be positive. The cross products f.Num·g.Den and
// g.Num·f.Den are 128-bit, so Cmp neither overflows nor allocates.
func (f Frac) Cmp(g Frac) int {
	sf := cmp.Compare(f.Num, 0)
	if sg := cmp.Compare(g.Num, 0); sf != sg || sf == 0 {
		return cmp.Compare(sf, sg) // the signs decide
	}
	a, b := uint64(f.Num), uint64(g.Num)
	if sf < 0 {
		a, b = -a, -b // the magnitudes; |MinInt64| = 2^63 fits
	}
	xh, xl := bits.Mul64(a, uint64(g.Den))
	yh, yl := bits.Mul64(b, uint64(f.Den))
	return sf * cmp.Or(cmp.Compare(xh, yh), cmp.Compare(xl, yl))
}

// Mul returns f·g in lowest terms, for f and g in lowest terms with
// non-negative numerators; ok is false when a part of the product
// does not fit in an int64.
func (f Frac) Mul(g Frac) (prod Frac, ok bool) {
	// Cancelling f.Num against g.Den and g.Num against f.Den leaves
	// parts without a common factor.
	a, b := NewFrac(f.Num, g.Den), NewFrac(g.Num, f.Den)
	nh, nl := bits.Mul64(uint64(a.Num), uint64(b.Num))
	dh, dl := bits.Mul64(uint64(b.Den), uint64(a.Den))
	if nh != 0 || dh != 0 || nl > math.MaxInt64 || dl > math.MaxInt64 {
		return Frac{}, false
	}
	return Frac{Num: int64(nl), Den: int64(dl)}, true
}

// commonDen is a common multiple of int64 denominators: the fixed
// denominator of Sum and of the Analyzer's rate and burst sums. It
// grows by an int64 gcd step, den·d/gcd(den mod d, d), so the
// numerators over it are scaled but never normalised.
type commonDen struct {
	den big.Int
	//rtlint:arena
	t1 big.Int
	//rtlint:arena
	t2 big.Int
}

// cover makes den a multiple of d > 0 and sets m = den/d; m must not
// be den or the scratch. It returns the factor den grew by, 1 when d
// already divided it.
func (c *commonDen) cover(m *big.Int, d int64) int64 {
	q, r := m.QuoRem(&c.den, c.t1.SetInt64(d), &c.t2)
	if r.Sign() == 0 {
		return 1
	}
	rem := r.Int64()
	g := int64(rtime.GCD(rtime.Duration(rem), rtime.Duration(d)))
	f := d / g
	c.den.Mul(&c.den, c.t1.SetInt64(f))
	// The new den/d is (q·d + rem)·f/d = q·f + rem/g, as d = f·g.
	q.Mul(q, &c.t1)
	q.Add(q, c.t2.SetInt64(rem/g))
	return f
}

// scale sets m = ⌊den/d⌋ and reports whether d divides den, making m
// exact; den never changes. m must not be den or the scratch.
func (c *commonDen) scale(m *big.Int, d int64) bool {
	_, r := m.QuoRem(&c.den, c.t1.SetInt64(d), &c.t2)
	return r.Sign() == 0
}

// Sum is an exact running sum of Fracs: one numerator over a common
// multiple of every denominator added so far. An Add or Sub whose
// denominator divides the common one costs a word-by-bignum divide and
// multiply; any other first grows the common denominator by an int64
// gcd step. No gcd of big numbers runs until Rat, so a sum filled once
// and patched by deltas pays one normalisation. A Sum must be Reset
// before use and must not be copied.
type Sum struct {
	commonDen
	num big.Int
	//rtlint:arena
	t3 big.Int
	//rtlint:arena
	t4 big.Int
}

// Reset empties the sum.
func (s *Sum) Reset() {
	s.den.SetInt64(1)
	s.num.SetInt64(0)
}

// Add adds f to the sum.
func (s *Sum) Add(f Frac) { s.add(f, false) }

// Sub subtracts f from the sum.
func (s *Sum) Sub(f Frac) { s.add(f, true) }

func (s *Sum) add(f Frac, sub bool) {
	m := &s.t3
	if g := s.cover(m, f.Den); g != 1 {
		s.num.Mul(&s.num, s.t1.SetInt64(g))
	}
	m.Mul(m, s.t1.SetInt64(f.Num))
	if sub {
		s.num.Sub(&s.num, m)
	} else {
		s.num.Add(&s.num, m)
	}
}

// Cmp compares the sum with bound, returning −1, 0 or +1.
func (s *Sum) Cmp(bound Frac) int {
	// num/den against p/q, with bound = p/q: num·q against den·p.
	s.t3.Mul(&s.num, s.t1.SetInt64(bound.Den))
	return s.t3.Cmp(s.t4.Mul(&s.den, s.t1.SetInt64(bound.Num)))
}

// CmpAfter compares the sum minus sub plus add with bound, as Cmp
// would after Sub(sub) and Add(add), but leaves the sum and its
// denominator unchanged.
func (s *Sum) CmpAfter(sub, add, bound Frac) int {
	// Scaled by den·b·e·q > 0, with sub = a/b, add = c/e and
	// bound = p/q: ((num·q − den·p)·e + den·q·c)·b − den·q·a·e
	// against 0. Every product has a one-word factor, so none
	// allocates once the scratch has grown.
	x, y := &s.t3, &s.t4
	x.Mul(&s.num, s.t1.SetInt64(bound.Den))
	x.Sub(x, y.Mul(&s.den, s.t1.SetInt64(bound.Num)))
	x.Mul(x, s.t1.SetInt64(add.Den))
	y.Mul(&s.den, s.t1.SetInt64(bound.Den))
	x.Add(x, y.Mul(y, s.t1.SetInt64(add.Num)))
	x.Mul(x, s.t1.SetInt64(sub.Den))
	y.Mul(&s.den, s.t1.SetInt64(bound.Den))
	y.Mul(y, s.t1.SetInt64(sub.Num))
	x.Sub(x, y.Mul(y, s.t1.SetInt64(add.Den)))
	return x.Sign()
}

// Rat returns the sum as a fresh normalised big.Rat: the one gcd the
// sum pays.
func (s *Sum) Rat() *big.Rat { return new(big.Rat).SetFrac(&s.num, &s.den) }

// FixedSum is a certified fixed-point enclosure of a running sum of
// non-negative Fracs at scale 2⁶⁴: lo sums each term rounded down,
// ⌊f·2⁶⁴⌋, and hi each term rounded up, ⌈f·2⁶⁴⌉, so the exact sum lies
// in [lo, hi]·2⁻⁶⁴. Its compare with 1 is exact whenever 1 lies outside
// that band, and costs two divisions per term and no allocation. A
// term is rounded the same way whenever it is added or subtracted, so
// a Sub undoes its Add exactly and the band does not drift.
//
// Each rounded term is below 2¹²⁷ (a numerator up to MaxInt64 over a
// denominator of at least 1, times 2⁶⁴), and the sum holds fewer than
// 2⁶³ of them, so every sum the caller can form is below 2¹⁹⁰. The
// sums are kept modulo 2¹⁹², so they are exact, and a subtraction of a
// term the sum holds borrows through the wrap correctly. A FixedSum
// must be Reset before use.
type FixedSum struct{ lo, hi u192 }

// u192 is an unsigned 192-bit integer in three words, w2 the highest.
type u192 struct{ w2, w1, w0 uint64 }

// add returns x+y modulo 2¹⁹².
func (x u192) add(y u192) u192 {
	w0, c := bits.Add64(x.w0, y.w0, 0)
	w1, c := bits.Add64(x.w1, y.w1, c)
	w2, _ := bits.Add64(x.w2, y.w2, c)
	return u192{w2, w1, w0}
}

// sub returns x−y modulo 2¹⁹².
func (x u192) sub(y u192) u192 {
	w0, b := bits.Sub64(x.w0, y.w0, 0)
	w1, b := bits.Sub64(x.w1, y.w1, b)
	w2, _ := bits.Sub64(x.w2, y.w2, b)
	return u192{w2, w1, w0}
}

// cmpOne compares x with 1 at scale 2⁶⁴, that is with 2⁶⁴.
func (x u192) cmpOne() int {
	return cmp.Or(cmp.Compare(x.w2, 0), cmp.Compare(x.w1, 1), cmp.Compare(x.w0, 0))
}

// fixed returns ⌊f·2⁶⁴⌋ and ⌈f·2⁶⁴⌉ for f.Num ≥ 0 and f.Den > 0: the
// integer part Num/Den in the middle word and the fraction's 64 bits
// below it.
func (f Frac) fixed() (lo, hi u192) {
	n, d := uint64(f.Num), uint64(f.Den)
	q0, r0 := bits.Div64(0, n, d)
	q1, r1 := bits.Div64(r0, 0, d) // r0 < d, so the quotient fits
	lo = u192{w1: q0, w0: q1}
	if r1 == 0 {
		return lo, lo
	}
	return lo, lo.add(u192{w0: 1})
}

// Reset empties the sum.
func (s *FixedSum) Reset() { *s = FixedSum{} }

// Add adds f, with f.Num ≥ 0, to the sum.
func (s *FixedSum) Add(f Frac) {
	lo, hi := f.fixed()
	s.lo, s.hi = s.lo.add(lo), s.hi.add(hi)
}

// Sub subtracts f, a term the sum holds, from it.
func (s *FixedSum) Sub(f Frac) {
	lo, hi := f.fixed()
	s.lo, s.hi = s.lo.sub(lo), s.hi.sub(hi)
}

// AtMostOne reports whether the exact sum is at most 1 and whether the
// enclosure decides that: decided is false exactly when
// lo·2⁻⁶⁴ ≤ 1 < hi·2⁻⁶⁴, where only an exact sum can tell.
func (s *FixedSum) AtMostOne() (le, decided bool) { return atMostOne(s.lo, s.hi) }

// AtMostOneAfter is AtMostOne for the sum minus sub, a term the sum
// holds, plus add; the sum itself is unchanged.
func (s *FixedSum) AtMostOneAfter(sub, add Frac) (le, decided bool) {
	sl, sh := sub.fixed()
	al, ah := add.fixed()
	return atMostOne(s.lo.add(al).sub(sl), s.hi.add(ah).sub(sh))
}

func atMostOne(lo, hi u192) (le, decided bool) {
	switch {
	case hi.cmpOne() <= 0:
		return true, true
	case lo.cmpOne() > 0:
		return false, true
	}
	return false, false
}
