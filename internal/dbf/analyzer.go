package dbf

import (
	"fmt"
	"math/big"

	"rtoffload/internal/rtime"
)

// demandStat is the cached per-demand analysis state of an Analyzer:
// the demand's long-run rate and burst as integer fractions (the fast
// path), the raw numerators over the demand's own denominator (the
// scaled path), its first step, and — for Demand implementations
// outside this package or int64 overflow — the exact big.Rat fallback
// values.
type demandStat struct {
	rate, burst frac
	// Raw (unreduced) numerators over rawDen: rate = rawRate/rawDen,
	// burst = rawBurst/rawDen. rawDen == 0 marks a wide stat.
	rawRate, rawBurst, rawDen int64
	first                     rtime.Duration
	// wide marks demands whose rate/burst exceed the int64 fast path;
	// rateRat/burstRat then hold the exact values.
	wide              bool
	rateRat, burstRat *big.Rat
}

// rateR returns the exact rate as a big.Rat (allocating only for
// narrow stats that never cached one).
func (st *demandStat) rateR() *big.Rat {
	if st.rateRat == nil {
		st.rateRat = st.rate.rat()
	}
	return st.rateRat
}

// burstR returns the exact burst as a big.Rat.
func (st *demandStat) burstR() *big.Rat {
	if st.burstRat == nil {
		st.burstRat = st.burst.rat()
	}
	return st.burstRat
}

// newDemandStat derives the cached state of one demand. ok is false
// only for a nil demand. Known demand types use pure integer
// arithmetic; anything else (or an int64 overflow) records the exact
// big.Rat values and marks the stat wide.
func newDemandStat(d Demand) (demandStat, bool) {
	switch v := d.(type) {
	case nil:
		return demandStat{}, false
	case Sporadic:
		if bn, ok := mul64(int64(v.C), int64(v.T-v.D)); ok {
			return demandStat{
				rate:    newFrac(int64(v.C), int64(v.T)),
				burst:   newFrac(bn, int64(v.T)),
				rawRate: int64(v.C), rawBurst: bn, rawDen: int64(v.T),
				first: v.FirstStep(),
			}, true
		}
	case Offloaded:
		if st, ok := offloadedStat(v); ok {
			return st, true
		}
	}
	return demandStat{
		wide:     true,
		rateRat:  d.Rate(),  //rtlint:allow hotalloc -- wide tier: foreign or overflowing demands pay exact big.Rat costs
		burstRat: d.Burst(), //rtlint:allow hotalloc -- wide tier: foreign or overflowing demands pay exact big.Rat costs
		first:    d.FirstStep(),
	}, true
}

// offloadedStat computes the integer stat of an Offloaded demand,
// mirroring Offloaded.Rate and Offloaded.Burst exactly: burst is the
// larger of the two alignment constants, both over denominator T.
func offloadedStat(o Offloaded) (demandStat, bool) {
	t := int64(o.T)
	cs, ok := add64(int64(o.C1), int64(o.C2))
	if !ok {
		return demandStat{}, false
	}
	a1, ok := mul64(int64(o.C1), int64(o.T-o.D1))
	if !ok {
		return demandStat{}, false
	}
	a2, ok := mul64(int64(o.C2), int64(o.T-o.D))
	if !ok {
		return demandStat{}, false
	}
	a, ok := add64(a1, a2)
	if !ok {
		return demandStat{}, false
	}
	b1, ok := mul64(int64(o.C2), int64(o.T-o.D+o.D1+o.R))
	if !ok {
		return demandStat{}, false
	}
	b2, ok := mul64(int64(o.C1), int64(o.R))
	if !ok {
		return demandStat{}, false
	}
	b, ok := add64(b1, b2)
	if !ok {
		return demandStat{}, false
	}
	bn := a
	if b > a {
		bn = b
	}
	return demandStat{
		rate:    newFrac(cs, t),
		burst:   newFrac(bn, t),
		rawRate: cs, rawBurst: bn, rawDen: t,
		first: o.FirstStep(),
	}, true
}

// Aggregate representation tiers, cheapest first. The Analyzer starts
// narrow and degrades only as far as the data forces it; every tier
// is exact.
const (
	// modeNarrow: rate/burst sums fit reduced int64 fractions — zero
	// allocation on swap and horizon.
	modeNarrow = iota
	// modeScaled: sums as big.Int numerators over a fixed common
	// denominator lcm(T_i). No gcd normalization ever runs; swaps are
	// O(1) big.Int multiply-adds into reused scratch, so steady-state
	// allocation is zero. Valid while every demand has integer raw
	// stats.
	modeScaled
	// modeWide: full big.Rat sums — only for foreign Demand
	// implementations or int64-overflowing parameters.
	modeWide
)

// Analyzer is an incremental demand-analysis engine: it holds a demand
// configuration together with cached aggregates (rate and burst sums,
// per-demand first steps) so that replacing one demand and re-running
// the exact QPA feasibility test costs O(1) aggregate work instead of
// a full rebuild. Verdicts — including the exact Violation window —
// are identical to a fresh QPA over the same demands.
//
// Aggregates live on an integer fast path; when a reduced sum
// overflows int64 the Analyzer switches to scaled big.Int numerators
// over the fixed common denominator, and only foreign demand types
// force full big.Rat arithmetic. Every tier is exact — overflow is
// detected, never wrapped — so exactness is never compromised.
type Analyzer struct {
	ds    []Demand
	stats []demandStat
	mode  int
	// Narrow aggregates (modeNarrow).
	rate, burst frac
	// Scaled aggregates (modeScaled): rateN/den and burstN/den with
	// den = lcm of all rawDen. mult[i] = den/rawDen_i. t1..t3 are
	// reusable scratch.
	den, rateN, burstN *big.Int
	//rtlint:arena
	mult []big.Int
	//rtlint:arena
	t1 *big.Int
	//rtlint:arena
	t2 *big.Int
	//rtlint:arena
	t3 *big.Int
	// Wide aggregates (modeWide).
	rateRat, burstRat *big.Rat
}

// NewAnalyzer builds the engine over a copy of ds. The configuration
// may be infeasible or even overloaded — that is reported by Feasible,
// not here. Only nil demands are rejected.
func NewAnalyzer(ds []Demand) (*Analyzer, error) {
	a := &Analyzer{
		ds:    append([]Demand(nil), ds...),
		stats: make([]demandStat, len(ds)),
	}
	for i, d := range ds {
		st, ok := newDemandStat(d)
		if !ok {
			return nil, fmt.Errorf("dbf: nil demand at index %d", i)
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

// Demands returns a copy of the current configuration.
func (a *Analyzer) Demands() []Demand { return append([]Demand(nil), a.ds...) }

// recompute rebuilds the aggregates from the per-demand stats,
// choosing the cheapest tier the data permits.
func (a *Analyzer) recompute() {
	if a.recomputeNarrow() {
		return
	}
	if a.recomputeScaled() {
		return
	}
	a.recomputeWide()
}

// recomputeNarrow tries the reduced-int64 tier.
func (a *Analyzer) recomputeNarrow() bool {
	rate, burst := fracZero, fracZero
	for i := range a.stats {
		st := &a.stats[i]
		if st.wide {
			return false
		}
		var ok bool
		if rate, ok = rate.add(st.rate); !ok {
			return false
		}
		if burst, ok = burst.add(st.burst); !ok {
			return false
		}
	}
	a.mode = modeNarrow
	a.rate, a.burst = rate, burst
	return true
}

// recomputeScaled builds the fixed-denominator big.Int tier: den is
// the lcm of every demand's raw denominator and never changes while
// swaps keep the same denominators, so later updates are gcd-free.
func (a *Analyzer) recomputeScaled() bool {
	for i := range a.stats {
		if a.stats[i].rawDen == 0 {
			return false
		}
	}
	if a.den == nil {
		a.den, a.rateN, a.burstN = new(big.Int), new(big.Int), new(big.Int)
		a.t1, a.t2, a.t3 = new(big.Int), new(big.Int), new(big.Int)
	}
	if cap(a.mult) < len(a.stats) {
		a.mult = make([]big.Int, len(a.stats))
	}
	a.mult = a.mult[:len(a.stats)]
	a.den.SetInt64(1)
	for i := range a.stats {
		t := a.stats[i].rawDen
		// den = den · t / gcd(den mod t, t); the gcd operand fits int64.
		rem := a.t1.Mod(a.den, a.t2.SetInt64(t)).Int64()
		g := int64(rtime.GCD(rtime.Duration(rem), rtime.Duration(t)))
		a.den.Mul(a.den, a.t2.SetInt64(t/g))
	}
	a.rateN.SetInt64(0)
	a.burstN.SetInt64(0)
	for i := range a.stats {
		st := &a.stats[i]
		m := &a.mult[i]
		m.Div(a.den, a.t1.SetInt64(st.rawDen))
		a.rateN.Add(a.rateN, a.t1.Mul(a.t2.SetInt64(st.rawRate), m))
		a.burstN.Add(a.burstN, a.t1.Mul(a.t2.SetInt64(st.rawBurst), m))
	}
	a.mode = modeScaled
	return true
}

// recomputeWide builds the full big.Rat tier.
func (a *Analyzer) recomputeWide() {
	if a.rateRat == nil {
		a.rateRat, a.burstRat = new(big.Rat), new(big.Rat)
	}
	a.rateRat.SetInt64(0)
	a.burstRat.SetInt64(0)
	for i := range a.stats {
		st := &a.stats[i]
		a.rateRat.Add(a.rateRat, st.rateR())
		a.burstRat.Add(a.burstRat, st.burstR())
	}
	a.mode = modeWide
}

// Swap replaces demand i, updating the cached aggregates in O(1).
//
//rtlint:hotpath -- O(1) aggregate delta behind every trial decision; the narrow tier must not allocate
func (a *Analyzer) Swap(i int, d Demand) error {
	if i < 0 || i >= len(a.ds) {
		return fmt.Errorf("dbf: demand index %d out of range [0,%d)", i, len(a.ds)) //rtlint:allow hotalloc -- invalid-input diagnostic, not the steady state
	}
	st, ok := newDemandStat(d)
	if !ok {
		return fmt.Errorf("dbf: nil demand") //rtlint:allow hotalloc -- invalid-input diagnostic, not the steady state
	}
	a.swapStat(i, d, st)
	return nil
}

// swapStat installs (d, st) at index i with an O(1) delta update of
// the aggregates; a full recompute only happens when the current tier
// cannot absorb the delta.
func (a *Analyzer) swapStat(i int, d Demand, st demandStat) {
	old := a.stats[i]
	a.ds[i] = d
	a.stats[i] = st
	switch a.mode {
	case modeNarrow:
		if !st.wide {
			if r, ok := a.rate.sub(old.rate); ok {
				if r, ok = r.add(st.rate); ok {
					if b, ok2 := a.burst.sub(old.burst); ok2 {
						if b, ok2 = b.add(st.burst); ok2 {
							a.rate, a.burst = r, b
							return
						}
					}
				}
			}
		}
	case modeScaled:
		if st.rawDen == old.rawDen && st.rawDen != 0 {
			// Same denominator: numerator deltas times the cached
			// multiplier — gcd-free, scratch-reusing.
			m := &a.mult[i]
			a.rateN.Add(a.rateN, a.t1.Mul(a.t2.SetInt64(st.rawRate-old.rawRate), m))     //rtlint:allow hotalloc -- scaled tier reuses big.Int scratch; word-slice growth is amortized
			a.burstN.Add(a.burstN, a.t1.Mul(a.t2.SetInt64(st.rawBurst-old.rawBurst), m)) //rtlint:allow hotalloc -- scaled tier reuses big.Int scratch; word-slice growth is amortized
			return
		}
	case modeWide:
		// Exact rational delta: subtract the old component, add the new.
		a.rateRat.Sub(a.rateRat, old.rateR())           //rtlint:allow hotalloc -- wide tier: exact big.Rat arithmetic for foreign demands
		a.rateRat.Add(a.rateRat, a.stats[i].rateR())    //rtlint:allow hotalloc -- wide tier: exact big.Rat arithmetic for foreign demands
		a.burstRat.Sub(a.burstRat, old.burstR())        //rtlint:allow hotalloc -- wide tier: exact big.Rat arithmetic for foreign demands
		a.burstRat.Add(a.burstRat, a.stats[i].burstR()) //rtlint:allow hotalloc -- wide tier: exact big.Rat arithmetic for foreign demands
		return
	}
	a.recompute() //rtlint:allow hotalloc -- full tier rebuild after a tier change, not the O(1) steady-state delta
}

// Append grows the configuration by one demand at the end, updating
// the cached aggregates with an O(1) delta. The current tier absorbs
// the new demand when it can (narrow: checked frac additions; scaled:
// the new denominator must divide the cached common denominator); a
// full recompute runs only when it cannot, and may re-select a
// cheaper tier.
func (a *Analyzer) Append(d Demand) error {
	st, ok := newDemandStat(d)
	if !ok {
		return fmt.Errorf("dbf: nil demand")
	}
	a.ds = append(a.ds, d)
	a.stats = append(a.stats, st)
	switch a.mode {
	case modeNarrow:
		if !st.wide {
			if r, ok := a.rate.add(st.rate); ok {
				if b, ok2 := a.burst.add(st.burst); ok2 {
					a.rate, a.burst = r, b
					return nil
				}
			}
		}
	case modeScaled:
		if st.rawDen != 0 && a.t1.Mod(a.den, a.t2.SetInt64(st.rawDen)).Sign() == 0 {
			// The cached lcm already covers the new denominator: extend
			// the multiplier table and add the scaled numerators.
			a.mult = append(a.mult, big.Int{})
			m := &a.mult[len(a.mult)-1]
			m.Div(a.den, a.t1.SetInt64(st.rawDen))
			a.rateN.Add(a.rateN, a.t1.Mul(a.t2.SetInt64(st.rawRate), m))
			a.burstN.Add(a.burstN, a.t1.Mul(a.t2.SetInt64(st.rawBurst), m))
			return nil
		}
	case modeWide:
		last := &a.stats[len(a.stats)-1]
		a.rateRat.Add(a.rateRat, last.rateR())
		a.burstRat.Add(a.burstRat, last.burstR())
		return nil
	}
	a.recompute()
	return nil
}

// Remove deletes demand i, preserving the order of the remaining
// demands, and updates the cached aggregates with an O(1) delta
// (plus the slice shift). The scaled tier keeps its cached common
// denominator — a superset lcm stays a valid exact denominator — so
// removals never force a recompute there.
func (a *Analyzer) Remove(i int) error {
	if i < 0 || i >= len(a.ds) {
		return fmt.Errorf("dbf: demand index %d out of range [0,%d)", i, len(a.ds))
	}
	old := a.stats[i]
	copy(a.ds[i:], a.ds[i+1:])
	a.ds[len(a.ds)-1] = nil
	a.ds = a.ds[:len(a.ds)-1]
	copy(a.stats[i:], a.stats[i+1:])
	a.stats[len(a.stats)-1] = demandStat{}
	a.stats = a.stats[:len(a.stats)-1]
	switch a.mode {
	case modeNarrow:
		// Subtraction re-reduces through the denominators' lcm, which
		// can itself overflow int64; fall back to a recompute then.
		if r, ok := a.rate.sub(old.rate); ok {
			if b, ok2 := a.burst.sub(old.burst); ok2 {
				a.rate, a.burst = r, b
				return nil
			}
		}
	case modeScaled:
		m := &a.mult[i]
		a.rateN.Sub(a.rateN, a.t1.Mul(a.t2.SetInt64(old.rawRate), m))
		a.burstN.Sub(a.burstN, a.t1.Mul(a.t2.SetInt64(old.rawBurst), m))
		copy(a.mult[i:], a.mult[i+1:])
		// Zero the vacated tail slot: the struct shift leaves it aliasing
		// the last live entry's backing array, and a later recompute that
		// re-slices mult and mutates the slot in place would corrupt that
		// entry through the shared array.
		a.mult[len(a.mult)-1] = big.Int{}
		a.mult = a.mult[:len(a.mult)-1]
		return nil
	case modeWide:
		a.rateRat.Sub(a.rateRat, old.rateR())
		a.burstRat.Sub(a.burstRat, old.burstR())
		return nil
	}
	a.recompute()
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
		return fmt.Errorf("dbf: nil demand")
	}
	oldD, oldSt := a.ds[i], a.stats[i]
	a.swapStat(i, d, st)
	err := f(a)
	a.swapStat(i, oldD, oldSt)
	return err
}

// Horizon returns the analysis horizon of the current configuration,
// identical to dbf.Horizon over the same demands: the integer tiers
// allocate nothing in steady state; big.Rat is the exact fallback.
func (a *Analyzer) Horizon() (rtime.Duration, error) {
	switch a.mode {
	case modeNarrow:
		if h, ok, err := horizonFromFracs(a.rate, a.burst); ok {
			return h, err
		}
		// Quotient past int64: take the exact path for the right error.
		return horizonFromRats(a.rate.rat(), a.burst.rat()) //rtlint:allow hotalloc -- int64-overflow fallback to exact big.Rat, off the narrow steady state
	case modeScaled:
		return a.horizonScaled() //rtlint:allow hotalloc -- scaled tier reuses big.Int scratch; word-slice growth is amortized
	default:
		return horizonFromRats(a.rateRat, a.burstRat) //rtlint:allow hotalloc -- wide tier: exact big.Rat arithmetic for foreign demands
	}
}

// horizonScaled computes max(1, ⌈burstN/(den−rateN)⌉) with reused
// scratch: overload iff rateN ≥ den (⟺ ΣRate ≥ 1).
func (a *Analyzer) horizonScaled() (rtime.Duration, error) {
	slack := a.t1.Sub(a.den, a.rateN)
	if slack.Sign() <= 0 {
		return 0, ErrOverloaded
	}
	if a.burstN.Sign() == 0 {
		return 1, nil
	}
	q, r := a.t2.DivMod(a.burstN, slack, a.t3)
	if r.Sign() != 0 {
		q.Add(q, bigIntOne)
	}
	if !q.IsInt64() {
		return 0, errHorizonOverflow(q)
	}
	if h := q.Int64(); h >= 1 {
		return rtime.Duration(h), nil
	}
	return 1, nil
}

var bigIntOne = big.NewInt(1)

// Feasible runs the exact QPA processor-demand test on the current
// configuration using the cached aggregates: nil means every deadline
// is guaranteed, a *Violation pinpoints an overloaded window, and
// ErrOverloaded reports a long-run rate ≥ 1. The verdict — including
// the Violation window — is identical to dbf.QPA on the same demands.
//
//rtlint:hotpath -- incremental QPA re-test behind every trial decision; the narrow tier must not allocate
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
	return qpaScanFrom(a.ds, h, dmin)
}
