package dbf

import (
	"fmt"
	"math"
	"math/big"

	"rtoffload/internal/rtime"
)

// demandStat is the cached per-demand analysis state of an Analyzer:
// the demand's long-run rate and burst as exact numerators over its
// own period den (rate = rate/den, burst = burst/den), and its first
// step.
type demandStat struct {
	rate  int64
	burst u128
	den   int64
	first rtime.Duration
}

// stat derives the model of a sporadic demand: rate C/T and burst
// C·(T−D)/T, from DBF(t) ≤ C·(t−D+T)/T. ok is false for parameters
// NewSporadic rejects, whose numerators u128 cannot bound.
func (s Sporadic) stat() (demandStat, bool) {
	if s.C <= 0 || s.C > s.D || s.D > s.T {
		return demandStat{}, false
	}
	return demandStat{
		rate:  int64(s.C),
		burst: mul128(int64(s.C), int64(s.T-s.D)),
		den:   int64(s.T),
		first: s.FirstStep(),
	}, true
}

// stat derives the model of an offloaded demand: rate (C1+C2)/T and
// the larger of the two alignment constants as burst. From alignment
// (a), DBF ≤ (C1+C2)/T·t + C1(T−D1)/T + C2(T−D)/T; from (b) the
// constant is C2(T−D+D1+R)/T + C1·R/T. ok is false for parameters
// outside NewOffloaded's bounds C1 ≤ D1 and C2 ≤ D−D1−R, which keep
// C1+C2 ≤ D ≤ T and every factor within [0, T]. The checks run in an
// order that keeps each subtraction in range.
func (o Offloaded) stat() (demandStat, bool) {
	if o.C1 <= 0 || o.C2 <= 0 || o.R < 0 || o.C1 > o.D1 || o.D1 > o.D ||
		o.C2 > o.D-o.D1-o.R || o.D > o.T {
		return demandStat{}, false
	}
	a := mul128(int64(o.C1), int64(o.T-o.D1)).add(mul128(int64(o.C2), int64(o.T-o.D)))
	b := mul128(int64(o.C2), int64(o.T-(o.D-o.D1-o.R))).add(mul128(int64(o.C1), int64(o.R)))
	return demandStat{
		rate:  int64(o.C1 + o.C2),
		burst: a.max(b),
		den:   int64(o.T),
		first: o.FirstStep(),
	}, true
}

// newDemandStat derives the cached state of one demand; ok is false
// for a nil demand or parameters outside its constructor's bounds.
func newDemandStat(d Demand) (demandStat, bool) {
	if d == nil {
		return demandStat{}, false
	}
	return d.stat()
}

// Analyzer is the demand-analysis engine behind QPA: it holds a demand
// configuration together with cached aggregates (rate and burst sums,
// per-demand first steps) so that replacing one demand and re-running
// the exact QPA feasibility test costs O(1) aggregate work instead of
// a full rebuild. Verdicts — including the exact Violation window —
// are identical to a fresh Analyzer's over the same demands, and
// dbf's tests hold both to an independent big.Rat reference.
//
// The sums are big.Int numerators over one commonDen, the mechanism
// Sum also runs on: a multiple of every demand's period. Updates add
// or subtract scaled numerators and never normalise, so no gcd runs on
// a swap and the reused scratch keeps the steady state
// allocation-free. The sums and scratch are held by value, so an
// Analyzer must not be copied.
type Analyzer struct {
	ds    []Demand
	stats []demandStat
	// ΣRate = rateN/den and ΣBurst = burstN/den, where den is a common
	// multiple of every stats[i].den and mult[i] = den/stats[i].den.
	// t3 is reusable scratch beside the commonDen's own.
	commonDen
	rateN, burstN big.Int
	//rtlint:arena
	mult []big.Int
	//rtlint:arena
	t3 big.Int
	// viol is the window Feasible reports on rejection, reused so a
	// rejecting verdict allocates nothing.
	viol Violation
}

// NewAnalyzer builds the engine over a copy of ds. The configuration
// may be infeasible or even overloaded — that is reported by Feasible,
// not here. Only nil demands and parameters their constructor rejects
// are refused.
func NewAnalyzer(ds []Demand) (*Analyzer, error) {
	a := &Analyzer{
		ds:    append([]Demand(nil), ds...),
		stats: make([]demandStat, len(ds)),
	}
	for i, d := range ds {
		st, ok := newDemandStat(d)
		if !ok {
			return nil, fmt.Errorf("dbf: nil or invalid demand at index %d", i)
		}
		a.stats[i] = st
	}
	a.recompute()
	return a, nil
}

// Len returns the number of demands.
func (a *Analyzer) Len() int { return len(a.ds) }

// At returns the demand in slot i.
func (a *Analyzer) At(i int) Demand { return a.ds[i] }

// recompute rebuilds the aggregates from the per-demand stats: den
// becomes the lcm of every stat's den and stays fixed while later
// updates use denominators that divide it.
func (a *Analyzer) recompute() {
	if cap(a.mult) < len(a.stats) {
		a.mult = make([]big.Int, len(a.stats))
	}
	a.mult = a.mult[:len(a.stats)]
	a.den.SetInt64(1)
	for i := range a.stats {
		a.cover(&a.t3, a.stats[i].den)
	}
	a.rateN.SetInt64(0)
	a.burstN.SetInt64(0)
	for i := range a.stats {
		a.scale(&a.mult[i], a.stats[i].den)
		a.account(i, false)
	}
}

// account adds stat i's share — its numerators times mult[i] — to the
// sums, or removes it when sub is set.
func (a *Analyzer) account(i int, sub bool) {
	st, m := &a.stats[i], &a.mult[i]
	r := a.t1.Mul(a.t2.SetInt64(st.rate), m)
	b := a.t3.Mul(st.burst.setBig(&a.t2, &a.t3), m)
	if sub {
		a.rateN.Sub(&a.rateN, r)
		a.burstN.Sub(&a.burstN, b)
		return
	}
	a.rateN.Add(&a.rateN, r)
	a.burstN.Add(&a.burstN, b)
}

// Swap replaces demand i, updating the cached aggregates in O(1).
//
//rtlint:hotpath -- O(1) aggregate delta behind every trial decision; the warm steady state must not allocate
func (a *Analyzer) Swap(i int, d Demand) error {
	if i < 0 || i >= len(a.ds) {
		return fmt.Errorf("dbf: demand index %d out of range [0,%d)", i, len(a.ds)) //rtlint:allow hotalloc -- invalid-input diagnostic, not the steady state
	}
	st, ok := newDemandStat(d)
	if !ok {
		return fmt.Errorf("dbf: nil or invalid demand") //rtlint:allow hotalloc -- invalid-input diagnostic, not the steady state
	}
	a.swapStat(i, d, st)
	return nil
}

// swapStat installs (d, st) at index i: it removes the old share and
// adds the new one, recomputing only when den does not cover the new
// period.
func (a *Analyzer) swapStat(i int, d Demand, st demandStat) {
	a.account(i, true) //rtlint:allow hotalloc -- reuses big.Int scratch; word-slice growth is amortized
	oldDen := a.stats[i].den
	a.ds[i] = d
	a.stats[i] = st
	if st.den != oldDen && !a.scale(&a.mult[i], st.den) { //rtlint:allow hotalloc -- reuses big.Int scratch; word-slice growth is amortized
		a.recompute() //rtlint:allow hotalloc -- full rebuild when den must grow, not the O(1) steady-state delta
		return
	}
	a.account(i, false) //rtlint:allow hotalloc -- reuses big.Int scratch; word-slice growth is amortized
}

// Append grows the configuration by one demand at the end, adding its
// share in O(1) when den already covers its period and recomputing
// otherwise.
func (a *Analyzer) Append(d Demand) error {
	st, ok := newDemandStat(d)
	if !ok {
		return fmt.Errorf("dbf: nil or invalid demand")
	}
	a.ds = append(a.ds, d)
	a.stats = append(a.stats, st)
	a.mult = append(a.mult, big.Int{})
	if i := len(a.stats) - 1; a.scale(&a.mult[i], st.den) {
		a.account(i, false)
	} else {
		a.recompute()
	}
	return nil
}

// Remove deletes demand i, preserving the order of the remaining
// demands, and subtracts its share in O(1) (plus the slice shift).
// den stays: a common multiple of a superset of the periods is still
// a valid exact denominator, so removals never recompute.
func (a *Analyzer) Remove(i int) error {
	if i < 0 || i >= len(a.ds) {
		return fmt.Errorf("dbf: demand index %d out of range [0,%d)", i, len(a.ds))
	}
	a.account(i, true)
	copy(a.ds[i:], a.ds[i+1:])
	a.ds[len(a.ds)-1] = nil
	a.ds = a.ds[:len(a.ds)-1]
	copy(a.stats[i:], a.stats[i+1:])
	a.stats = a.stats[:len(a.stats)-1]
	copy(a.mult[i:], a.mult[i+1:])
	// Zero the vacated tail slot: the struct shift leaves it aliasing
	// the last live entry's backing array, and a later recompute that
	// re-slices mult and mutates the slot in place would corrupt that
	// entry through the shared array.
	a.mult[len(a.mult)-1] = big.Int{}
	a.mult = a.mult[:len(a.mult)-1]
	return nil
}

// With runs f with demand i temporarily replaced by d, restoring the
// previous configuration afterwards, and returns f's result. The
// restore reuses the cached stat, so a full trial costs two O(1)
// swaps plus whatever f does.
func (a *Analyzer) With(i int, d Demand, f func(*Analyzer) error) error {
	if i < 0 || i >= len(a.ds) {
		return fmt.Errorf("dbf: demand index %d out of range [0,%d)", i, len(a.ds))
	}
	st, ok := newDemandStat(d)
	if !ok {
		return fmt.Errorf("dbf: nil or invalid demand")
	}
	oldD, oldSt := a.ds[i], a.stats[i]
	a.swapStat(i, d, st)
	err := f(a)
	a.swapStat(i, oldD, oldSt)
	return err
}

// Horizon returns a rigorous upper bound on the length of any window
// that can witness a demand violation, as any t with ΣDBF(t) > t has
// t < ΣBurst/(1−ΣRate): max(1, ⌈burstN/(den−rateN)⌉), with overload
// iff rateN ≥ den (⟺ ΣRate ≥ 1). It reuses the scratch and allocates
// nothing in steady state.
func (a *Analyzer) Horizon() (rtime.Duration, error) {
	slack := a.t1.Sub(&a.den, &a.rateN) //rtlint:allow hotalloc -- reuses big.Int scratch; word-slice growth is amortized
	if slack.Sign() <= 0 {
		return 0, ErrOverloaded
	}
	if a.burstN.Sign() == 0 {
		return 1, nil
	}
	q, r := a.t2.QuoRem(&a.burstN, slack, &a.t3) //rtlint:allow hotalloc -- reuses big.Int scratch; word-slice growth is amortized
	if r.Sign() != 0 {
		q.Add(q, bigIntOne) //rtlint:allow hotalloc -- reuses big.Int scratch; word-slice growth is amortized
	}
	if !q.IsInt64() {
		return 0, errHorizonOverflow(q) //rtlint:allow hotalloc -- overflow diagnostic, not the steady state
	}
	if h := q.Int64(); h >= 1 {
		return rtime.Duration(h), nil
	}
	return 1, nil
}

var bigIntOne = big.NewInt(1)

// Feasible runs the exact QPA processor-demand test (Zhang & Burns'
// backward scan from the horizon) on the current configuration using
// the cached aggregates: nil means every deadline is guaranteed, a
// *Violation pinpoints an overloaded window, and ErrOverloaded
// reports a long-run rate ≥ 1. The *Violation is owned by the
// Analyzer and valid until its next Feasible call.
//
//rtlint:hotpath -- incremental QPA re-test behind every trial decision; the warm steady state must not allocate
func (a *Analyzer) Feasible() error {
	h, err := a.Horizon()
	if err != nil {
		return err
	}
	dmin := rtime.Duration(0)
	for i := range a.stats {
		fs := a.stats[i].first
		if fs == 0 || fs > h {
			continue
		}
		if dmin == 0 || fs < dmin {
			dmin = fs
		}
	}
	if dmin == 0 {
		return nil // no demand steps within the horizon
	}
	if h == math.MaxInt64 {
		// The scan starts below h+1, which int64 cannot hold. Rejecting
		// is the safe side of the guarantee.
		return errHorizonOverflow(big.NewInt(math.MaxInt64)) //rtlint:allow hotalloc -- overflow diagnostic, not the steady state
	}
	// Zhang & Burns, Algorithm 1:
	//
	//	t := max{step < L}
	//	while h(t) ≤ t ∧ h(t) > dmin:
	//	    if h(t) < t: t := h(t) else t := max{step < t}
	//	feasible iff h(t) ≤ dmin at exit (otherwise h(t) > t).
	t := prevStepAll(a.ds, h+1)
	for t >= dmin {
		dem := TotalDBF(a.ds, t)
		if dem > t {
			a.viol = Violation{T: t, Demand: dem}
			return &a.viol
		}
		if dem <= dmin {
			// No window below t can be overloaded: demand below dmin
			// never exceeds dmin ≤ any remaining step.
			return nil
		}
		if dem < t {
			t = dem
		} else {
			t = prevStepAll(a.ds, t)
		}
	}
	return nil
}
