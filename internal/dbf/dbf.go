// Package dbf implements demand-bound-function analysis for the
// paper's scheduling algorithm (§5.1, Theorems 1–3).
//
// A Demand models the worst-case execution demand a task can place in
// any window of a given length. Two concrete demands are provided:
//
//   - Sporadic: a classic sporadic task (Ci, Di, Ti) — the paper's
//     locally executed tasks (Theorem 2, after Baruah et al. 1990).
//   - Offloaded: a task split into a setup sub-job (Ci,1, deadline
//     Di,1) and a compensation/post-processing sub-job (Ci,2, absolute
//     deadline t+Di) separated by a suspension of at most Ri. Its DBF
//     is the exact worst case over window alignments of the split
//     model, which refines the paper's linear Theorem-1 bound
//     (Ci,1+Ci,2)/(Di−Ri)·t.
//
// On top of the demands, the package provides the paper's Theorem-3
// density test in exact rational arithmetic and QPA (Zhang & Burns
// 2009), an exact processor-demand test up to a rigorous busy-window
// horizon. The processor demand criterion (PDC), which checks every
// demand step up to that horizon, is QPA's test oracle.
package dbf

import (
	"fmt"
	"math"
	"math/big"

	"rtoffload/internal/rtime"
)

// Demand is the worst-case execution demand of one task. It is
// sealed: only Sporadic and Offloaded implement it, so the Analyzer
// models every demand exactly.
type Demand interface {
	// DBF returns the maximum execution time of jobs that both arrive
	// in and have deadlines in any window of length t.
	DBF(t rtime.Duration) rtime.Duration
	// Rate is the long-run demand growth rate: lim DBF(t)/t.
	Rate() *big.Rat
	// Burst is an additive constant with DBF(t) ≤ Rate·t + Burst for
	// all t ≥ 0; it bounds the transient excess over the long-run rate
	// and determines the analysis horizon.
	Burst() *big.Rat
	// FirstStep returns the smallest t > 0 where DBF increases, or 0
	// when the demand has no steps at all.
	FirstStep() rtime.Duration
	// PrevStep returns the largest step strictly below t, or 0 when
	// none exists.
	PrevStep(t rtime.Duration) rtime.Duration

	// stat is the Analyzer's exact integer model of Rate and Burst;
	// ok is false for parameters the constructor rejects.
	stat() (demandStat, bool)
}

// count returns the number of deadlines at offsets off, off+T,
// off+2T, … that are ≤ t (zero when t < off), saturated at the int64
// ceiling.
func count(t, off, period rtime.Duration) int64 {
	if t < off {
		return 0
	}
	n := rtime.FloorDiv(t-off, period)
	if n == math.MaxInt64 {
		return n // a window at the int64 horizon with a 1µs period
	}
	return n + 1
}

// prevForOffset returns the largest value of off+kT (k ≥ 0) strictly
// below t, or 0. The checked helpers cannot actually saturate here —
// k·T ≤ t−off−1 by construction — but keep the arithmetic uniformly
// guarded.
func prevForOffset(t, off, period rtime.Duration) rtime.Duration {
	if t <= off {
		return 0
	}
	k := rtime.FloorDiv(t-off-1, period)
	return addDur(off, mulDur(period, k))
}

// Sporadic is the demand of a sporadic task with WCET C, relative
// deadline D and minimum inter-arrival time T (D ≤ T).
type Sporadic struct {
	C, D, T rtime.Duration
}

// NewSporadic validates the parameters.
func NewSporadic(c, d, t rtime.Duration) (Sporadic, error) {
	switch {
	case t <= 0:
		return Sporadic{}, fmt.Errorf("dbf: period %v must be positive", t)
	case d <= 0 || d > t:
		return Sporadic{}, fmt.Errorf("dbf: deadline %v out of (0, %v]", d, t)
	case c <= 0 || c > d:
		return Sporadic{}, fmt.Errorf("dbf: WCET %v out of (0, %v]", c, d)
	}
	return Sporadic{C: c, D: d, T: t}, nil
}

// DBF implements the classic sporadic demand bound
// max(0, ⌊(t−D)/T⌋+1)·C, saturating instead of wrapping on overflow.
func (s Sporadic) DBF(t rtime.Duration) rtime.Duration {
	return mulDur(s.C, count(t, s.D, s.T))
}

// Rate returns C/T.
func (s Sporadic) Rate() *big.Rat { return rtime.Ratio(s.C, s.T) }

// Burst returns C·(T−D)/T, from DBF(t) ≤ C·(t−D+T)/T.
func (s Sporadic) Burst() *big.Rat {
	b := rtime.Ratio(s.T-s.D, s.T)
	return b.Mul(b, s.C.Rat())
}

// FirstStep returns D, the first deadline.
func (s Sporadic) FirstStep() rtime.Duration { return s.D }

// PrevStep returns the largest step below t.
func (s Sporadic) PrevStep(t rtime.Duration) rtime.Duration {
	return prevForOffset(t, s.D, s.T)
}

// SplitDeadline computes the setup sub-job's relative deadline of the
// paper's scheduling algorithm (§5.1):
//
//	Di,1 = Ci,1 · (Di − Ri) / (Ci,1 + Ci,2)
//
// floored to the microsecond grid. When the Theorem-3 term
// (Ci,1+Ci,2)/(Di−Ri) is ≤ 1, the floored Di,1 is still ≥ Ci,1.
func SplitDeadline(c1, c2, d, r rtime.Duration) (rtime.Duration, error) {
	if c1 <= 0 || c2 <= 0 {
		return 0, fmt.Errorf("dbf: setup/compensation WCETs must be positive (C1=%v, C2=%v)", c1, c2)
	}
	if r < 0 {
		return 0, fmt.Errorf("dbf: negative response budget %v", r)
	}
	if d-r <= 0 {
		return 0, fmt.Errorf("dbf: response budget %v leaves no slack before deadline %v", r, d)
	}
	den, ok := add64(int64(c1), int64(c2))
	if !ok {
		return 0, fmt.Errorf("dbf: setup+compensation WCETs overflow int64 (C1=%v, C2=%v)", c1, c2)
	}
	// 128-bit intermediate; the quotient fits int64 because C1 < C1+C2
	// implies D1 < D−R.
	q, ok := mulDiv64(int64(c1), int64(d-r), den)
	if !ok {
		return 0, fmt.Errorf("dbf: split deadline overflows int64 (C1=%v, D−R=%v)", c1, d-r)
	}
	d1 := rtime.Duration(q)
	if d1 <= 0 {
		return 0, fmt.Errorf("dbf: split deadline underflows the time grid (C1=%v, D−R=%v, C1+C2=%v)", c1, d-r, c1+c2)
	}
	return d1, nil
}

// Offloaded is the demand of an offloaded task under the paper's
// split-deadline EDF scheduling: setup sub-job (C1, relative deadline
// D1), suspension ≤ R, then a second sub-job (C2 worst case, absolute
// deadline release+D). D ≤ T.
type Offloaded struct {
	C1, C2 rtime.Duration
	D, T   rtime.Duration
	R      rtime.Duration
	D1     rtime.Duration
}

// NewOffloaded validates parameters and computes D1 via SplitDeadline.
func NewOffloaded(c1, c2, d, t, r rtime.Duration) (Offloaded, error) {
	if t <= 0 || d <= 0 || d > t {
		return Offloaded{}, fmt.Errorf("dbf: deadline %v / period %v invalid", d, t)
	}
	d1, err := SplitDeadline(c1, c2, d, r)
	if err != nil {
		return Offloaded{}, err
	}
	if c1 > d1 {
		return Offloaded{}, fmt.Errorf("dbf: setup WCET %v exceeds split deadline %v (over-dense: (C1+C2)/(D−R) > 1)", c1, d1)
	}
	if rem := d - d1 - r; c2 > rem {
		return Offloaded{}, fmt.Errorf("dbf: compensation WCET %v exceeds remaining window %v", c2, rem)
	}
	return Offloaded{C1: c1, C2: c2, D: d, T: t, R: r, D1: d1}, nil
}

// DBF returns the exact worst-case demand of the split model: the
// maximum over the two critical window alignments — (a) the window
// starts at a job release; (b) the window starts at the latest possible
// arrival of a second sub-job (release + D1 + R), with the preceding
// setup outside the window.
//
// NewOffloaded's bounds keep every step offset in (0, T], so with
// t = qT + r an offset off has q + [r ≥ off] deadlines within t: one
// division serves all four counts.
func (o Offloaded) DBF(t rtime.Duration) rtime.Duration {
	if t <= 0 {
		return 0
	}
	q, r := int64(t/o.T), t%o.T
	a := addDur(mulDur(o.C1, stepCount(q, r, o.D1)),
		mulDur(o.C2, stepCount(q, r, o.D)))
	b := addDur(mulDur(o.C2, stepCount(q, r, o.D-o.D1-o.R)),
		mulDur(o.C1, stepCount(q, r, o.T-o.R)))
	return rtime.Max(a, b)
}

// stepCount returns the number of deadlines off, off+T, off+2T, … at
// or below t = qT + r, for an offset off in (0, T]. It cannot
// overflow: q+1 > q only when r ≥ off ≥ 1, which needs T ≥ 2.
func stepCount(q int64, r, off rtime.Duration) int64 {
	if r >= off {
		return q + 1
	}
	return q
}

// Rate returns the long-run rate (C1+C2)/T.
func (o Offloaded) Rate() *big.Rat { return rtime.Ratio(o.C1+o.C2, o.T) }

// Burst bounds the transient excess: from alignment (a),
// DBF ≤ (C1+C2)/T·t + C1(T−D1)/T + C2(T−D)/T; from (b) the constant is
// C2(T−D+D1+R)/T + C1·R/T. Burst is the larger of the two.
func (o Offloaded) Burst() *big.Rat {
	t := o.T.Rat()
	a := new(big.Rat).Add(
		mulRat(rtime.Ratio(o.T-o.D1, o.T), o.C1),
		mulRat(rtime.Ratio(o.T-o.D, o.T), o.C2),
	)
	b := new(big.Rat).Add(
		mulRat(rtime.Ratio(o.T-o.D+o.D1+o.R, o.T), o.C2),
		mulRat(new(big.Rat).Quo(o.R.Rat(), t), o.C1),
	)
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

func mulRat(r *big.Rat, d rtime.Duration) *big.Rat {
	return new(big.Rat).Mul(r, d.Rat())
}

// Theorem1Rate returns (C1+C2)/(D−R) in lowest terms, the task's
// contribution to the Theorem-3 sum. The constructor's bounds keep
// both parts within (0, D].
func (o Offloaded) Theorem1Rate() Frac {
	return NewFrac(int64(o.C1+o.C2), int64(o.D-o.R))
}

// offsets returns the four step offsets of the two alignments.
func (o Offloaded) offsets() [4]rtime.Duration {
	return [4]rtime.Duration{o.D1, o.D, o.D - o.D1 - o.R, o.T - o.R}
}

// FirstStep returns the smallest positive offset of either alignment.
func (o Offloaded) FirstStep() rtime.Duration {
	best := rtime.Duration(0)
	for _, off := range o.offsets() {
		if off <= 0 {
			continue
		}
		if best == 0 || off < best {
			best = off
		}
	}
	return best
}

// PrevStep returns the largest step below t across both alignments.
// With t−1 = qT + r and every offset in (0, T] (see DBF), the largest
// offset off ≤ r steps at off + qT; when none is ≤ r, the largest
// offset steps at off + (q−1)T. Both lie at or below t−1, so neither
// can overflow.
func (o Offloaded) PrevStep(t rtime.Duration) rtime.Duration {
	if t <= 1 {
		return 0
	}
	q, r := (t-1)/o.T, (t-1)%o.T
	below, top := rtime.Duration(0), rtime.Duration(0)
	for _, off := range o.offsets() {
		if off <= r && off > below {
			below = off
		}
		top = max(top, off)
	}
	switch {
	case below > 0:
		//rtlint:allow overflowguard -- below + qT ≤ r + qT = t−1
		return below + q*o.T
	case q > 0:
		//rtlint:allow overflowguard -- top + (q−1)T ≤ qT ≤ t−1
		return top + (q-1)*o.T
	}
	return 0
}

// Dominates reports whether a's DBF is at or above b's at every window
// length. It is a sufficient O(1) test for an offloaded demand a over
// a demand b of equal T and D (false otherwise). Over a sporadic b it
// needs C1+C2 ≥ C: D1 ≤ D puts a's alignment (a) at or above
// (C1+C2)·⌊(t−D)/T+1⌋. Over an offloaded b, a must need at least as
// much in both sub-jobs, and its offsets D1 and D−D1−R must come no
// later; together these give R ≥ b.R, so T−R comes no later either.
// The same conditions put a's Rate and Burst at or above b's, so a
// configuration grown by dominating swaps never has a smaller
// analysis horizon.
func Dominates(a, b Demand) bool {
	o, ok := a.(Offloaded)
	if !ok {
		return false
	}
	switch b := b.(type) {
	case Sporadic:
		return o.T == b.T && o.D == b.D && o.C1+o.C2 >= b.C
	case Offloaded:
		return o.T == b.T && o.D == b.D && o.C1 >= b.C1 && o.C2 >= b.C2 &&
			o.D1 <= b.D1 && o.D-o.D1-o.R <= b.D-b.D1-b.R
	}
	return false
}

// TotalDBF sums the demands at window length t, saturating at the
// int64 ceiling instead of wrapping.
func TotalDBF(ds []Demand, t rtime.Duration) rtime.Duration {
	var sum rtime.Duration
	for _, d := range ds {
		sum = addDur(sum, d.DBF(t))
	}
	return sum
}

// TotalRate sums the long-run rates.
func TotalRate(ds []Demand) *big.Rat {
	u := new(big.Rat)
	for _, d := range ds {
		u.Add(u, d.Rate())
	}
	return u
}
