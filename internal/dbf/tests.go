package dbf

import (
	"errors"
	"fmt"
	"math/big"

	"rtoffload/internal/rtime"
)

// Theorem3 evaluates the paper's schedulability test (Theorem 3) in
// exact rational arithmetic:
//
//	Σ_{τi ∈ To} (Ci,1+Ci,2)/(Di−Ri)  +  Σ_{τi ∈ Tl} Ci/Di  ≤  1
//
// For implicit-deadline local tasks Ci/Di equals the paper's Ci/Ti;
// using the deadline keeps the test sufficient for the
// constrained-deadline extension as well. It returns the exact total
// and whether the test passes, summed on one Sum.
func Theorem3(offloaded []Offloaded, local []Sporadic) (total *big.Rat, ok bool) {
	var s Sum
	s.Reset()
	for _, o := range offloaded {
		s.Add(o.Theorem1Rate())
	}
	for _, l := range local {
		s.Add(NewFrac(int64(l.C), int64(l.D)))
	}
	return s.Rat(), s.Cmp(Frac{Num: 1, Den: 1}) <= 0
}

// ErrOverloaded reports a long-run demand rate ≥ 1, for which no
// finite analysis horizon exists.
var ErrOverloaded = errors.New("dbf: total long-run demand rate ≥ 1")

// errHorizonOverflow reports a horizon the QPA scan cannot run to.
func errHorizonOverflow(q *big.Int) error {
	return fmt.Errorf("dbf: analysis horizon overflows int64 microseconds: %v", q)
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
// points: a fresh Analyzer's verdict, refusing what NewAnalyzer
// refuses. PDC itself is the test oracle in pdc_test.go.
func QPA(ds []Demand) error {
	a, err := NewAnalyzer(ds)
	if err != nil {
		return err
	}
	return a.Feasible()
}
