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

// fixedOracle drives a FixedSum beside an exact Sum and a big.Rat
// reference through the same non-negative terms, counting how often
// the enclosure decided each verdict and how often it left the compare
// to the exact sum.
type fixedOracle struct {
	fx                FixedSum
	s                 Sum
	ref               big.Rat
	le, gt, undecided int
	afterLe, afterGt  int
	afterUndecided    int
}

func newFixedOracle() *fixedOracle {
	o := &fixedOracle{}
	o.fx.Reset()
	o.s.Reset()
	return o
}

// apply adds or subtracts f on every side and checks the enclosure:
// it must contain the exact sum, and a decided verdict must be the
// exact one. It then probes AtMostOneAfter(sub, add), sub a held term,
// against the reference.
func (o *fixedOracle) apply(t *testing.T, f Frac, neg bool, sub, add Frac) {
	t.Helper()
	if neg {
		o.fx.Sub(f)
		o.s.Sub(f)
		o.ref.Sub(&o.ref, fracRat(f))
	} else {
		o.fx.Add(f)
		o.s.Add(f)
		o.ref.Add(&o.ref, fracRat(f))
	}
	lo, hi := o.fx.lo.rat(), o.fx.hi.rat()
	if lo.Cmp(&o.ref) > 0 || hi.Cmp(&o.ref) < 0 {
		t.Fatalf("after %v (sub=%v): [%v, %v] does not hold the sum %v", f, neg, lo, hi, &o.ref)
	}
	want := o.ref.Cmp(big.NewRat(1, 1)) <= 0
	if got := o.s.Cmp(Frac{Num: 1, Den: 1}) <= 0; got != want {
		t.Fatalf("after %v: Sum says ≤ 1 is %v, reference %v", f, got, want)
	}
	o.count(t, want, &o.le, &o.gt, &o.undecided, o.fx.AtMostOne)
	after := new(big.Rat).Sub(&o.ref, fracRat(sub))
	after.Add(after, fracRat(add))
	o.count(t, after.Cmp(big.NewRat(1, 1)) <= 0, &o.afterLe, &o.afterGt, &o.afterUndecided,
		func() (bool, bool) { return o.fx.AtMostOneAfter(sub, add) })
}

func (o *fixedOracle) count(t *testing.T, want bool, le, gt, undecided *int, verdict func() (bool, bool)) {
	t.Helper()
	got, decided := verdict()
	switch {
	case !decided:
		*undecided++
	case got != want:
		t.Fatalf("the enclosure decides ≤ 1 is %v on %v; exactly it is %v", got, &o.ref, want)
	case got:
		*le++
	default:
		*gt++
	}
}

// rat returns x·2⁻⁶⁴ as a big.Rat.
func (x u192) rat() *big.Rat {
	n := new(big.Int).SetUint64(x.w2)
	n.Lsh(n, 64).Or(n, new(big.Int).SetUint64(x.w1))
	n.Lsh(n, 64).Or(n, new(big.Int).SetUint64(x.w0))
	return new(big.Rat).SetFrac(n, new(big.Int).Lsh(big.NewInt(1), 64))
}

// TestFixedSumMatchesExact is the fixed-point enclosure's differential
// test against Sum, a big.Rat sum and refTheorem3. Random runs draw
// non-negative terms from drawFrac's regimes, many far above 1 or with
// numerators near MaxInt64, and subtract held ones; near-tie runs put
// the sum exactly at 1, a hair above or below it inside the rounding
// band, and at 1 again after a subtraction. Both decided verdicts and
// the band, where only the exact sum can tell, must each occur.
func TestFixedSumMatchesExact(t *testing.T) {
	rng := stats.NewRNG(0xf1ced)
	o := newFixedOracle()
	var total fixedOracle
	merge := func() {
		total.le += o.le
		total.gt += o.gt
		total.undecided += o.undecided
		total.afterLe += o.afterLe
		total.afterGt += o.afterGt
		total.afterUndecided += o.afterUndecided
	}
	for run := 0; run < 300; run++ {
		o = newFixedOracle()
		var live []Frac
		for step := 0; step < 30; step++ {
			f, neg := drawFrac(rng), false
			if rng.Bool(0.5) {
				// Light terms, so sums near 1 are common.
				f = NewFrac(rng.Int64N(1000)+1, rng.Int64N(1e6)+4000)
			}
			if len(live) > 0 && rng.Bool(0.4) {
				k := rng.IntN(len(live))
				f, neg = live[k], true
				live = append(live[:k], live[k+1:]...)
			} else {
				live = append(live, f)
			}
			sub, add := Frac{Num: 0, Den: 1}, drawFrac(rng)
			if len(live) > 0 {
				sub = live[rng.IntN(len(live))]
			}
			o.apply(t, f, neg, sub, add)
		}
		merge()
	}
	const d1, d2 = int64(1)<<62 - 57, int64(1)<<62 - 87
	const big64 = int64(math.MaxInt64)
	for _, ops := range [][]Frac{
		{{1, 3}, {1, 3}, {1, 3}},                          // exactly 1, the band straddles it
		{{12345, d1}, {d1 - 12345, d1}},                   // exactly 1 over a huge denominator
		{{d1 - 1, d1}, {1, d1 + 1}},                       // below 1 by 1/(d1·(d1+1))
		{{d1 - 1, d1}, {1, d1 - 1}},                       // above 1 by 1/(d1·(d1−1))
		{{d1 - 1, d1}, {1, d2}, {-1, d2}, {1, d1}},        // back to exactly 1
		{{big64, 3}, {big64 - 1, big64}, {-big64, 3}},     // a weight far above 1, then gone
		{{big64, big64 - 1}, {big64 - 2, big64}},          // numerators at the int64 ceiling
		{{big64 - 1, big64}, {1, big64}},                  // 1 by two terms at the ceiling
		{{big64, 1}, {big64, 1}, {big64, 2}, {-big64, 1}}, // integer parts beyond 2⁶⁴
	} {
		// Each probe swaps a term for itself, so it asks about the sum
		// just formed, ties included.
		o = newFixedOracle()
		for _, f := range ops {
			if f.Num < 0 {
				o.apply(t, Frac{Num: -f.Num, Den: f.Den}, true, Frac{Num: 0, Den: 1}, Frac{Num: 0, Den: 1})
				continue
			}
			o.apply(t, f, false, f, f)
		}
		merge()
	}
	// refTheorem3 over demands: the weights of random task-shaped sets
	// near full utilisation, judged on the enclosure with the exact sum
	// behind it.
	for trial := 0; trial < 300; trial++ {
		o = newFixedOracle()
		var off []Offloaded
		var loc []Sporadic
		for _, d := range randomDemands(rng, 3+rng.IntN(10), rng.Uniform(0.7, 1)) {
			switch d := d.(type) {
			case Offloaded:
				off = append(off, d)
				o.apply(t, d.Theorem1Rate(), false, d.Theorem1Rate(), Frac{Num: 0, Den: 1})
			case Sporadic:
				loc = append(loc, d)
				w := NewFrac(int64(d.C), int64(d.D))
				o.apply(t, w, false, w, Frac{Num: 0, Den: 1})
			}
		}
		want, wantOK := refTheorem3(off, loc)
		got, decided := o.fx.AtMostOne()
		if decided && got != wantOK {
			t.Fatalf("trial %d: the enclosure decides %v; refTheorem3 %v with total %v", trial, got, wantOK, want)
		}
		if o.ref.Cmp(want) != 0 {
			t.Fatalf("trial %d: oracle sum %v, refTheorem3 %v", trial, &o.ref, want)
		}
		merge()
	}
	t.Logf("AtMostOne: %d ≤ 1, %d > 1, %d in the band; AtMostOneAfter: %d, %d, %d",
		total.le, total.gt, total.undecided, total.afterLe, total.afterGt, total.afterUndecided)
	if total.le == 0 || total.gt == 0 || total.undecided == 0 ||
		total.afterLe == 0 || total.afterGt == 0 || total.afterUndecided == 0 {
		t.Fatal("a verdict or the exact fallback never occurred")
	}
}
