package core

import (
	"math"
	"math/big"
	"testing"

	"rtoffload/internal/dbf"
	"rtoffload/internal/stats"
)

// t3Oracle judges a theorem3Sum against an exact dbf.Sum and a
// big.Rat sum of the same chosen weights, counting the verdicts its
// fixed-point enclosure decided and those it left to the exact
// fallback.
type t3Oracle struct {
	s                 theorem3Sum
	caches            []taskCache
	points            []int
	le, gt, undecided int
}

// refSum returns the big.Rat sum of the chosen weights with choice i
// at point to (i < 0: none moved), skipping points without a weight,
// and whether every chosen point has one.
func (o *t3Oracle) refSum(i, to int) (*big.Rat, bool) {
	sum, all := new(big.Rat), true
	for k, p := range o.points {
		if k == i {
			p = to
		}
		w := o.caches[k].weight(p)
		if w.Den == 0 {
			all = false
			continue
		}
		sum.Add(sum, big.NewRat(w.Num, w.Den))
	}
	return sum, all
}

// count tallies the enclosure's verdict before the exact one is read.
func (o *t3Oracle) count(le, decided bool) {
	switch {
	case !decided:
		o.undecided++
	case le:
		o.le++
	default:
		o.gt++
	}
}

// check holds ok, okAfter on every alternative point of choice i and
// total to the references.
func (o *t3Oracle) check(t *testing.T, ctx string, i int) {
	t.Helper()
	one := big.NewRat(1, 1)
	ref, all := o.refSum(-1, 0)
	want := all && ref.Cmp(one) <= 0
	var exact dbf.Sum
	exact.Reset()
	for k, p := range o.points {
		if w := o.caches[k].weight(p); w.Den != 0 {
			exact.Add(w)
		}
	}
	if (exact.Cmp(theorem3Bound) <= 0) != (ref.Cmp(one) <= 0) {
		t.Fatalf("%s: dbf.Sum and big.Rat disagree on %v", ctx, ref)
	}
	if all {
		o.count(o.s.fx.AtMostOne())
	}
	if got := o.s.ok(); got != want {
		t.Fatalf("%s: ok() = %v on %v (every weight present: %v)", ctx, got, ref, all)
	}
	wantTotal := ref
	if !all {
		wantTotal = big.NewRat(2, 1)
	}
	if got := o.s.total(); got.Cmp(wantTotal) != 0 {
		t.Fatalf("%s: total() = %v, reference %v", ctx, got, wantTotal)
	}
	c := &o.caches[i]
	if c.weight(o.points[i]).Den == 0 {
		return
	}
	for to := -1; to < len(c.levelW); to++ {
		if c.weight(to).Den == 0 {
			continue
		}
		o.count(o.s.fx.AtMostOneAfter(c.weight(o.points[i]), c.weight(to)))
		after, _ := o.refSum(i, to)
		if got := o.s.okAfter(i, to); got != (after.Cmp(one) <= 0) {
			t.Fatalf("%s: okAfter(%d, %d) = %v on %v", ctx, i, to, got, after)
		}
	}
	if o.s.points[i] != o.points[i] {
		t.Fatalf("%s: okAfter moved choice %d", ctx, i)
	}
}

// move moves choice i to point to on both sides.
func (o *t3Oracle) move(i, to int) {
	o.s.move(i, to)
	o.points[i] = to
}

// fill starts the oracle on caches at points.
func (o *t3Oracle) fill(caches []taskCache, points []int) {
	o.caches, o.points = caches, append([]int(nil), points...)
	choices := make([]Choice, len(points))
	for i, p := range points {
		choices[i] = Choice{Offload: p >= 0, Level: max(p, 0)}
	}
	o.s.fill(caches, choices)
}

// drawT3Weight draws a Theorem-3 weight: mostly a task-shaped light
// one over microsecond periods, else one over a denominator near 2⁶²,
// one above 1, one with a numerator near MaxInt64, or none (no demand
// model).
func drawT3Weight(rng *stats.RNG) dbf.Frac {
	switch k := rng.IntN(20); {
	case k < 14:
		d := rng.Int64N(78e4) + 2e4
		return dbf.NewFrac(rng.Int64N(d/8)+1, d)
	case k < 16:
		d := int64(1)<<62 - rng.Int64N(1000)
		return dbf.NewFrac(rng.Int64N(d/4)+1, d)
	case k < 17:
		return dbf.NewFrac(math.MaxInt64-rng.Int64N(1000), rng.Int64N(5)+1)
	case k < 19:
		d := math.MaxInt64 - rng.Int64N(1000)
		return dbf.NewFrac(d-rng.Int64N(d/2), d)
	}
	return dbf.Frac{}
}

// TestTheorem3SumMatchesExact is the differential test of the
// Theorem-3 accumulator's fixed-point enclosure (dbf.FixedSum) with
// its exact fallback, against dbf.Sum and a big.Rat sum of the chosen
// weights: ok, okAfter on every alternative point, and total, over
// random choice vectors moved one choice at a time, and over near-tie
// sets whose sum is exactly 1 or within a rounding step of it, with
// weights above 1 and numerators near MaxInt64. Both decided verdicts
// and the exact fallback must each occur.
func TestTheorem3SumMatchesExact(t *testing.T) {
	rng := stats.NewRNG(0x7e3)
	var o t3Oracle
	var le, gt, undecided int
	tally := func() {
		le, gt, undecided = le+o.le, gt+o.gt, undecided+o.undecided
		o.le, o.gt, o.undecided = 0, 0, 0
	}
	for trial := 0; trial < 200; trial++ {
		caches := make([]taskCache, 2+rng.IntN(14))
		points := make([]int, len(caches))
		for i := range caches {
			caches[i].localW = dbf.NewFrac(rng.Int64N(4000)+1, rng.Int64N(78e4)+2e4)
			for lv := rng.IntN(3) + 1; lv > 0; lv-- {
				caches[i].levelW = append(caches[i].levelW, drawT3Weight(rng))
			}
			points[i] = rng.IntN(len(caches[i].levelW)+1) - 1
		}
		o.fill(caches, points)
		o.check(t, "filled", 0)
		for step := 0; step < 20; step++ {
			i := rng.IntN(len(caches))
			o.move(i, rng.IntN(len(caches[i].levelW)+1)-1)
			o.check(t, "moved", i)
		}
		tally()
	}

	// Near ties: choice 0 moves between weights that put the total at,
	// just under and just over 1, with the rest fixed.
	const d1 = int64(1)<<62 - 57
	const top = int64(math.MaxInt64)
	for _, tc := range []struct {
		name  string
		rest  []dbf.Frac // the other choices' local weights
		moves []dbf.Frac // choice 0's levels, visited in order
	}{
		{"thirds", []dbf.Frac{{Num: 1, Den: 3}, {Num: 1, Den: 3}},
			[]dbf.Frac{{Num: 1, Den: 3}, {Num: 2, Den: 3}, {Num: 1, Den: 6}}},
		{"huge denominator", []dbf.Frac{{Num: d1 - 1, Den: d1}},
			[]dbf.Frac{{Num: 1, Den: d1}, {Num: 1, Den: d1 + 1}, {Num: 1, Den: d1 - 1}}},
		{"at the int64 ceiling", []dbf.Frac{{Num: top - 1, Den: top}},
			[]dbf.Frac{{Num: 1, Den: top}, {Num: 2, Den: top}, {Num: 1, Den: top - 1}}},
		{"above 1 and back", []dbf.Frac{{Num: 1, Den: 2}, {Num: 1, Den: 4}},
			[]dbf.Frac{{Num: top, Den: 3}, {Num: 1, Den: 4}, {Num: top, Den: top - 1}, {Num: 1, Den: 5}}},
	} {
		caches := make([]taskCache, 1+len(tc.rest))
		caches[0].localW = dbf.Frac{Num: 0, Den: 1}
		caches[0].levelW = tc.moves
		for k, w := range tc.rest {
			caches[k+1].localW = w
		}
		points := make([]int, len(caches))
		for k := 1; k < len(points); k++ {
			points[k] = -1
		}
		o.fill(caches, points)
		for lv := range tc.moves {
			o.move(0, lv)
			o.check(t, tc.name, 0)
		}
		tally()
	}
	t.Logf("enclosure verdicts: %d ≤ 1, %d > 1, %d left to the exact sum", le, gt, undecided)
	if le == 0 || gt == 0 || undecided == 0 {
		t.Fatal("a decided verdict or the exact fallback never occurred")
	}
}
