package dbf

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"rtoffload/internal/rtime"
)

var one = big.NewRat(1, 1)

// Theorem3 evaluates the paper's schedulability test (Theorem 3) in
// exact rational arithmetic:
//
//	Σ_{τi ∈ To} (Ci,1+Ci,2)/(Di−Ri)  +  Σ_{τi ∈ Tl} Ci/Di  ≤  1
//
// For implicit-deadline local tasks Ci/Di equals the paper's Ci/Ti;
// using the deadline keeps the test sufficient for the
// constrained-deadline extension as well. It returns the exact total
// and whether the test passes.
func Theorem3(offloaded []Offloaded, local []Sporadic) (total *big.Rat, ok bool) {
	total = new(big.Rat)
	for _, o := range offloaded {
		total.Add(total, o.Theorem1Rate())
	}
	for _, l := range local {
		total.Add(total, rtime.Ratio(l.C, l.D))
	}
	return total, total.Cmp(one) <= 0
}

// ErrOverloaded reports a long-run demand rate ≥ 1, for which no
// finite analysis horizon exists.
var ErrOverloaded = errors.New("dbf: total long-run demand rate ≥ 1")

// errHorizonOverflow reports a horizon the QPA scan cannot run to,
// identically on the reference and Analyzer paths.
func errHorizonOverflow(q *big.Int) error {
	return fmt.Errorf("dbf: analysis horizon overflows int64 microseconds: %v", q)
}

// Horizon returns a rigorous upper bound on the length of any window
// that can witness a demand violation: any t with ΣDBF(t) > t
// satisfies t < ΣBurst / (1 − ΣRate). Windows beyond the horizon need
// not be checked. Fails with ErrOverloaded when ΣRate ≥ 1.
//
// It sums each demand's Rate and Burst in big.Rat, so it is the
// reference the Analyzer's integer aggregates are checked against.
func Horizon(ds []Demand) (rtime.Duration, error) {
	rate := TotalRate(ds)
	if rate.Cmp(one) >= 0 {
		return 0, ErrOverloaded
	}
	burst := new(big.Rat)
	for _, d := range ds {
		burst.Add(burst, d.Burst())
	}
	h := burst.Quo(burst, rate.Sub(one, rate))
	// Round up to the next microsecond. Any horizon below one
	// microsecond (including a zero burst, where demand never exceeds
	// rate·t < t) rounds up to the minimum positive horizon; the
	// comparison is exact — a float round-trip here could misclassify
	// a bound within one ulp of 1.
	if h.Cmp(one) < 0 {
		return 1, nil
	}
	q, r := new(big.Int).QuoRem(h.Num(), h.Denom(), new(big.Int))
	if r.Sign() != 0 {
		q.Add(q, bigIntOne)
	}
	if !q.IsInt64() {
		return 0, errHorizonOverflow(q)
	}
	return rtime.Duration(q.Int64()), nil
}

// Violation describes a failed demand test: at window length T the
// accumulated demand exceeds the available time.
type Violation struct {
	T      rtime.Duration
	Demand rtime.Duration
}

func (v *Violation) Error() string {
	return fmt.Sprintf("dbf: demand %v exceeds window %v", v.Demand, v.T)
}

// QPA runs Zhang & Burns' Quick Processor-demand Analysis, an exact
// test equivalent to the processor demand criterion (PDC: ΣDBF(t) ≤ t
// at every demand step up to the horizon) that scans backwards from
// the horizon and typically evaluates orders of magnitude fewer
// points. PDC itself is the test oracle in pdc_test.go.
func QPA(ds []Demand) error {
	h, err := Horizon(ds)
	if err != nil {
		return err
	}
	return qpaScan(ds, h)
}

// qpaScan is the QPA backward scan over a fixed horizon, shared by
// QPA and the incremental Analyzer.
func qpaScan(ds []Demand, h rtime.Duration) error {
	dmin := minStep(ds, h)
	if dmin == 0 {
		return nil // no demand steps at all
	}
	return qpaScanFrom(ds, h, dmin)
}

// qpaScanFrom runs the backward scan with a precomputed smallest step.
func qpaScanFrom(ds []Demand, h, dmin rtime.Duration) error {
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
	t := prevStepAll(ds, h+1)
	for t >= dmin {
		dem := TotalDBF(ds, t)
		if dem > t {
			return &Violation{T: t, Demand: dem} //rtlint:allow hotalloc -- violation report built once on the infeasible verdict path
		}
		if dem <= dmin {
			// No window below t can be overloaded: demand below dmin
			// never exceeds dmin ≤ any remaining step.
			return nil
		}
		if dem < t {
			t = dem
		} else {
			t = prevStepAll(ds, t)
		}
	}
	return nil
}

// prevStepAll returns the largest step of any demand strictly below t.
func prevStepAll(ds []Demand, t rtime.Duration) rtime.Duration {
	best := rtime.Duration(0)
	for _, d := range ds {
		if p := d.PrevStep(t); p > best {
			best = p
		}
	}
	return best
}

// minStep returns the smallest step of any demand within the horizon,
// or 0 when there are none. FirstStep keeps this allocation-free — no
// step slice is materialized just to read its head.
func minStep(ds []Demand, h rtime.Duration) rtime.Duration {
	best := rtime.Duration(0)
	for _, d := range ds {
		fs := d.FirstStep()
		if fs == 0 || fs > h {
			continue
		}
		if best == 0 || fs < best {
			best = fs
		}
	}
	return best
}
