package dbf

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"rtoffload/internal/stats"
)

// fracRat is f as a big.Rat, the reference the accumulator is held to.
func fracRat(f Frac) *big.Rat { return new(big.Rat).SetFrac64(f.Num, f.Den) }

// sumOracle drives a Sum and a big.Rat reference through the same
// operations and compares them after every one.
type sumOracle struct {
	s   Sum
	ref big.Rat
}

func newSumOracle() *sumOracle {
	o := &sumOracle{}
	o.s.Reset()
	return o
}

// apply adds (or subtracts) f on both sides, checks the sum and its
// compare with bound, then asks CmpAfter(sub, add, bound) and checks
// that the probe left the sum as it was.
func (o *sumOracle) apply(t *testing.T, f Frac, neg bool, sub, add, bound Frac) {
	t.Helper()
	if neg {
		o.s.Sub(f)
		o.ref.Sub(&o.ref, fracRat(f))
	} else {
		o.s.Add(f)
		o.ref.Add(&o.ref, fracRat(f))
	}
	o.check(t, f, neg, bound)
	want := new(big.Rat).Sub(&o.ref, fracRat(sub))
	want = want.Add(want, fracRat(add)).Sub(want, fracRat(bound))
	if got := o.s.CmpAfter(sub, add, bound); got != want.Sign() {
		t.Fatalf("CmpAfter(%v, %v, %v) = %d on %v, reference %d", sub, add, bound, got, &o.ref, want.Sign())
	}
	o.check(t, f, neg, bound)
}

func (o *sumOracle) check(t *testing.T, f Frac, neg bool, bound Frac) {
	t.Helper()
	if got := o.s.Rat(); got.Cmp(&o.ref) != 0 {
		t.Fatalf("after %v (sub=%v): sum %v, reference %v", f, neg, got, &o.ref)
	}
	if got, want := o.s.Cmp(bound), o.ref.Cmp(fracRat(bound)); got != want {
		t.Fatalf("after %v (sub=%v): Cmp(%v) %d, reference %d", f, neg, bound, got, want)
	}
	if o.s.den.Sign() <= 0 {
		t.Fatalf("common denominator %v is not positive", &o.s.den)
	}
}

// drawFrac draws a non-negative fraction from one of four regimes:
// small parts, microsecond-scale periods like the task sets', parts
// near 2^62, and the whole int64 range.
func drawFrac(rng *stats.RNG) Frac {
	switch rng.IntN(4) {
	case 0:
		d := rng.Int64N(1000) + 1
		return Frac{Num: rng.Int64N(d + 1), Den: d}
	case 1:
		d := rng.Int64N(8e5) + 2e4
		return NewFrac(rng.Int64N(d)+1, d)
	case 2:
		d := int64(1)<<62 - rng.Int64N(1000)
		return Frac{Num: rng.Int64N(d) + 1, Den: d}
	default:
		return Frac{Num: rng.Int64N(math.MaxInt64), Den: rng.Int64N(math.MaxInt64) + 1}
	}
}

// drawBound draws a compare bound: Theorem 3's 1, a drawFrac
// fraction, or sum itself when both its parts fit in an int64, so
// that ties occur.
func drawBound(rng *stats.RNG, sum *big.Rat) Frac {
	switch rng.IntN(3) {
	case 0:
		return Frac{Num: 1, Den: 1}
	case 1:
		if sum.Num().IsInt64() && sum.Denom().IsInt64() {
			return Frac{Num: sum.Num().Int64(), Den: sum.Denom().Int64()}
		}
	}
	return drawFrac(rng)
}

// TestSumMatchesRat is the accumulator's differential test: random
// runs of adds and subtractions, each checked against a big.Rat sum,
// with a Cmp and a CmpAfter probe against a random bound after every
// step.
func TestSumMatchesRat(t *testing.T) {
	rng := stats.NewRNG(0x5a11)
	for run := 0; run < 200; run++ {
		o := newSumOracle()
		var live []Frac
		for step := 0; step < 40; step++ {
			f, neg := drawFrac(rng), false
			if len(live) > 0 && rng.Bool(0.4) {
				k := rng.IntN(len(live))
				f, neg = live[k], true
				live = append(live[:k], live[k+1:]...)
			} else {
				live = append(live, f)
			}
			next := new(big.Rat).Add(&o.ref, fracRat(f))
			if neg {
				next.Sub(&o.ref, fracRat(f))
			}
			sub, add := drawFrac(rng), drawFrac(rng)
			if rng.Bool(0.3) {
				add = sub // the probe then ties wherever Cmp does
			}
			o.apply(t, f, neg, sub, add, drawBound(rng, next))
		}
	}
}

// TestSumAtOne pins the verdict at the bound: totals just below, at
// and just above 1 (or a pool cap) over denominators near 2^62, where
// the distance to the bound is far below a float64 ulp.
func TestSumAtOne(t *testing.T) {
	const d1, d2 = int64(1)<<62 - 57, int64(1)<<62 - 87
	for _, tc := range []struct {
		name  string
		ops   []Frac // a negative Num subtracts
		want  int
		bound Frac // zero: 1
	}{
		{"thirds", []Frac{{1, 3}, {1, 3}, {1, 3}}, 0, Frac{}},
		{"complement", []Frac{{12345, d1}, {d1 - 12345, d1}}, 0, Frac{}},
		{"below by 1/(d1·(d1+1))", []Frac{{d1 - 1, d1}, {1, d1 + 1}}, -1, Frac{}},
		{"above by 1/(d1·(d1−1))", []Frac{{d1 - 1, d1}, {1, d1 - 1}}, 1, Frac{}},
		{"coprime above", []Frac{{d1 - 1, d1}, {1, d2}}, 1, Frac{}},
		{"back to one", []Frac{{d1 - 1, d1}, {1, d2}, {-1, d2}, {1, d1}}, 0, Frac{}},
		{"empty", nil, -1, Frac{}},
		{"at cap 3/4", []Frac{{1, 4}, {1, d1}, {1, 2}, {-1, d1}}, 0, Frac{3, 4}},
		{"above cap by 1/d2", []Frac{{3, 4}, {1, d2}}, 1, Frac{3, 4}},
		{"above cap by 30/(d1·d2)", []Frac{{d1 - 1, d1}}, 1, Frac{d2 - 1, d2}},
		{"below cap by 30/(d1·d2)", []Frac{{d2 - 1, d2}}, -1, Frac{d1 - 1, d1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bound := tc.bound
			if bound.Den == 0 {
				bound = Frac{1, 1}
			}
			o := newSumOracle()
			for _, f := range tc.ops {
				if f.Num < 0 {
					o.apply(t, Frac{Num: -f.Num, Den: f.Den}, true, Frac{1, 2}, Frac{1, 3}, bound)
				} else {
					o.apply(t, f, false, Frac{1, 2}, Frac{1, 3}, bound)
				}
			}
			if got := o.s.Cmp(bound); got != tc.want {
				t.Fatalf("Cmp(%v) = %d, want %d (sum %v)", bound, got, tc.want, o.s.Rat())
			}
		})
	}
}

// TestFracFloat64MatchesRat holds the MCKP handoff to big.Rat.Float64
// bit for bit, including parts above 2^53 where a float64 division of
// the rounded parts would differ. Each draw also checks Frac.Cmp
// against big.Rat.Cmp, with itself and two earlier draws, where the
// pairs near 2^63 differ only far below a float64 ulp.
func TestFracFloat64MatchesRat(t *testing.T) {
	fs := []Frac{
		{1, 3}, {0, 5}, {2, 3}, {1 << 53, 3}, {1<<53 + 1, 3}, {1, 1<<53 + 1},
		{1<<53 + 1, 1<<53 + 3}, {1<<62 - 57, 1<<62 - 87}, {math.MaxInt64, math.MaxInt64 - 1},
		{-(1<<53 + 1), 7}, {math.MinInt64, 3}, {math.MaxInt64 - 1, math.MaxInt64 - 2},
		{math.MaxInt64 - 2, math.MaxInt64 - 3}, {math.MinInt64 + 1, math.MaxInt64}, {math.MinInt64, math.MaxInt64},
	}
	rng := stats.NewRNG(0xf10a7)
	for k := 0; k < 20000; k++ {
		fs = append(fs, drawFrac(rng))
	}
	for k, f := range fs {
		want, _ := fracRat(f).Float64()
		if got := f.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d/%d: Float64 %x (%v), big.Rat %x (%v)", f.Num, f.Den,
				math.Float64bits(got), got, math.Float64bits(want), want)
		}
		for _, g := range []Frac{f, fs[max(k-1, 0)], fs[k/2]} {
			if got, want := f.Cmp(g), fracRat(f).Cmp(fracRat(g)); got != want {
				t.Fatalf("%d/%d Cmp %d/%d = %d, big.Rat %d", f.Num, f.Den, g.Num, g.Den, got, want)
			}
		}
	}
}

// sumRecord is one encoded fuzz operation: an opcode byte (bit 0:
// subtract; bit 1: bound the probes by the previous fraction, not 1)
// and the fraction's two int64 parts.
const sumRecord = 17

func encodeSumOps(ops ...[3]int64) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, byte(op[0]))
		b = binary.LittleEndian.AppendUint64(b, uint64(op[1]))
		b = binary.LittleEndian.AppendUint64(b, uint64(op[2]))
	}
	return b
}

// FuzzSumMatchesRat runs arbitrary operation streams through the
// accumulator against a big.Rat sum: any int64 numerator, any positive
// denominator, each step checked and probed with Cmp and CmpAfter
// against 1 or, when opcode bit 1 is set, the previous fraction.
func FuzzSumMatchesRat(f *testing.F) {
	f.Add(encodeSumOps([3]int64{0, 1, 3}, [3]int64{0, 1, 3}, [3]int64{0, 1, 3}))
	f.Add(encodeSumOps([3]int64{0, 1<<62 - 58, 1<<62 - 57}, [3]int64{0, 1, 1<<62 - 87}, [3]int64{1, 1, 1<<62 - 87}))
	f.Add(encodeSumOps([3]int64{0, math.MaxInt64, 1}, [3]int64{1, math.MinInt64, math.MaxInt64}))
	f.Add(encodeSumOps([3]int64{0, 7, 20000}, [3]int64{0, 9, 800000}, [3]int64{1, 7, 20000}))
	f.Add(encodeSumOps([3]int64{0, 1, 4}, [3]int64{2, 1, 2}, [3]int64{3, 1, 2}, [3]int64{2, 3, 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		o := newSumOracle()
		prev := Frac{Num: 1, Den: 1}
		for len(data) >= sumRecord {
			num := int64(binary.LittleEndian.Uint64(data[1:]))
			den := int64(binary.LittleEndian.Uint64(data[9:])%math.MaxInt64) + 1
			fr, bound := Frac{Num: num, Den: den}, Frac{Num: 1, Den: 1}
			if data[0]&2 != 0 {
				bound = prev
			}
			o.apply(t, fr, data[0]&1 == 1, fr, prev, bound)
			prev, data = fr, data[sumRecord:]
		}
	})
}
