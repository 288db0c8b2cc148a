package dbf

// The big.Rat reference model of the demand analysis: each demand's
// long-run rate and burst as normalised rationals, the horizon they
// give, and the QPA scan over that horizon. It shares no arithmetic
// with the shipped integer model (demandStat numerators over one
// commonDen), which the differential tests hold to it, and it scans
// with its own smallest step and a freshly allocated Violation.

import (
	"math"
	"math/big"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

var one = big.NewRat(1, 1)

// refModel is the reference model's view of a demand: Sporadic and
// Offloaded implement it here.
type refModel interface {
	// refRate is the long-run demand growth rate: lim DBF(t)/t.
	refRate() *big.Rat
	// refBurst is an additive constant with DBF(t) ≤ Rate·t + Burst
	// for all t ≥ 0; it bounds the transient excess over the long-run
	// rate and determines the analysis horizon.
	refBurst() *big.Rat
}

// durRat returns the duration as an exact rational number of
// microseconds.
func durRat(d rtime.Duration) *big.Rat { return new(big.Rat).SetInt64(int64(d)) }

// refRate returns C/T.
func (s Sporadic) refRate() *big.Rat { return rtime.Ratio(s.C, s.T) }

// refBurst returns C·(T−D)/T, from DBF(t) ≤ C·(t−D+T)/T.
func (s Sporadic) refBurst() *big.Rat {
	b := rtime.Ratio(s.T-s.D, s.T)
	return b.Mul(b, durRat(s.C))
}

// refRate returns the long-run rate (C1+C2)/T.
func (o Offloaded) refRate() *big.Rat { return rtime.Ratio(o.C1+o.C2, o.T) }

// refBurst bounds the transient excess: from alignment (a),
// DBF ≤ (C1+C2)/T·t + C1(T−D1)/T + C2(T−D)/T; from (b) the constant is
// C2(T−D+D1+R)/T + C1·R/T. Burst is the larger of the two.
func (o Offloaded) refBurst() *big.Rat {
	t := durRat(o.T)
	a := new(big.Rat).Add(
		mulRat(rtime.Ratio(o.T-o.D1, o.T), o.C1),
		mulRat(rtime.Ratio(o.T-o.D, o.T), o.C2),
	)
	b := new(big.Rat).Add(
		mulRat(rtime.Ratio(o.T-o.D+o.D1+o.R, o.T), o.C2),
		mulRat(new(big.Rat).Quo(durRat(o.R), t), o.C1),
	)
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

func mulRat(r *big.Rat, d rtime.Duration) *big.Rat {
	return new(big.Rat).Mul(r, durRat(d))
}

// refTotalRate sums the long-run rates.
func refTotalRate(ds []Demand) *big.Rat {
	u := new(big.Rat)
	for _, d := range ds {
		u.Add(u, d.(refModel).refRate())
	}
	return u
}

// refHorizon returns a rigorous upper bound on the length of any
// window that can witness a demand violation: any t with ΣDBF(t) > t
// satisfies t < ΣBurst / (1 − ΣRate). Windows beyond the horizon need
// not be checked. Fails with ErrOverloaded when ΣRate ≥ 1.
func refHorizon(ds []Demand) (rtime.Duration, error) {
	rate := refTotalRate(ds)
	if rate.Cmp(one) >= 0 {
		return 0, ErrOverloaded
	}
	burst := new(big.Rat)
	for _, d := range ds {
		burst.Add(burst, d.(refModel).refBurst())
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

// refQPA is the reference QPA: the big.Rat horizon, then the backward
// scan from it.
func refQPA(ds []Demand) error {
	h, err := refHorizon(ds)
	if err != nil {
		return err
	}
	return refQPAScan(ds, h)
}

// refQPAScan is the QPA backward scan over a fixed horizon.
func refQPAScan(ds []Demand, h rtime.Duration) error {
	dmin := refMinStep(ds, h)
	if dmin == 0 {
		return nil // no demand steps at all
	}
	if h == math.MaxInt64 {
		// The scan starts below h+1, which int64 cannot hold. Rejecting
		// is the safe side of the guarantee.
		return errHorizonOverflow(big.NewInt(math.MaxInt64))
	}
	t := prevStepAll(ds, h+1)
	for t >= dmin {
		dem := TotalDBF(ds, t)
		if dem > t {
			return &Violation{T: t, Demand: dem}
		}
		if dem <= dmin {
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

// refMinStep returns the smallest step of any demand within the
// horizon, or 0 when there are none.
func refMinStep(ds []Demand, h rtime.Duration) rtime.Duration {
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

// refTheorem3 is the reference Theorem-3 test: the weights summed as
// normalised big.Rats.
func refTheorem3(offloaded []Offloaded, local []Sporadic) (total *big.Rat, ok bool) {
	total = new(big.Rat)
	for _, o := range offloaded {
		w := o.Theorem1Rate()
		total.Add(total, big.NewRat(w.Num, w.Den))
	}
	for _, l := range local {
		total.Add(total, rtime.Ratio(l.C, l.D))
	}
	return total, total.Cmp(one) <= 0
}

// checkStatMatchesRef asserts the shipped integer model of d equals
// the big.Rat reference: rate/den = refRate, burst/den = refBurst and
// first = FirstStep.
func checkStatMatchesRef(t *testing.T, d Demand) {
	t.Helper()
	st, ok := d.stat()
	if !ok {
		t.Fatalf("%+v: stat refused a valid demand", d)
	}
	rate, burst := st.rats()
	ref := d.(refModel)
	if rate.Cmp(ref.refRate()) != 0 || burst.Cmp(ref.refBurst()) != 0 || st.first != d.FirstStep() {
		t.Fatalf("%+v: stat rate %v, burst %v, first %v; reference %v, %v, %v",
			d, rate, burst, st.first, ref.refRate(), ref.refBurst(), d.FirstStep())
	}
}

// TestStatMatchesReference holds each demand's integer rate and burst
// to the big.Rat reference on random demands of both kinds and on
// demands whose parameters approach the int64 ceiling, where the
// burst numerators need all 128 bits.
func TestStatMatchesReference(t *testing.T) {
	rng := stats.NewRNG(7413)
	for n := 0; n < 3000; {
		var d Demand
		switch n % 3 {
		case 0:
			d = randomSwapDemand(rng)
		case 1:
			if o, ok := randOffloaded(rng, 60); ok {
				d = o
			}
		default:
			period := rtime.Duration(rng.Int64N(int64(ms(500)))) + 1
			dl := rtime.Duration(rng.Int64N(int64(period))) + 1
			if s, err := NewSporadic(rtime.Duration(rng.Int64N(int64(dl)))+1, dl, period); err == nil {
				d = s
			}
		}
		if d != nil {
			checkStatMatchesRef(t, d)
			n++
		}
	}
	// Near the ceiling: T within 2^20 of MaxInt64 and of 2^62, every
	// other parameter a random fraction of it.
	huge := 0
	for trial := 0; trial < 2000; trial++ {
		period := rtime.Duration(math.MaxInt64 - rng.Int64N(1<<20))
		if rng.Bool(0.5) {
			period = 1<<62 + rtime.Duration(rng.Int64N(1<<20))
		}
		dl := period - rtime.Duration(rng.Int64N(int64(period/2)))
		if rng.Bool(0.5) {
			s, err := NewSporadic(rtime.Duration(rng.Int64N(int64(dl)))+1, dl, period)
			if err != nil {
				t.Fatal(err)
			}
			checkStatMatchesRef(t, s)
			huge++
			continue
		}
		r := rtime.Duration(rng.Int64N(int64(dl / 2)))
		c1 := rtime.Duration(rng.Int64N(int64(dl/4))) + 1
		c2 := rtime.Duration(rng.Int64N(int64(dl/4))) + 1
		if o, err := NewOffloaded(c1, c2, dl, period, r); err == nil {
			checkStatMatchesRef(t, o)
			huge++
		}
	}
	if huge < 1000 {
		t.Fatalf("only %d near-ceiling demands were valid", huge)
	}
}

// TestTheorem3MatchesReference holds the Sum-based Theorem-3 total and
// verdict to the big.Rat reference on random sets, from light to over
// capacity, and on weights with huge coprime denominators.
func TestTheorem3MatchesReference(t *testing.T) {
	rng := stats.NewRNG(7414)
	pass, fail := 0, 0
	for trial := 0; trial < 2000; trial++ {
		var off []Offloaded
		var loc []Sporadic
		n := rng.IntN(10)
		for i := 0; i < n; i++ {
			period := ms(rng.UniformInt(20, 700))
			if rng.Bool(0.1) {
				period = rtime.Duration(math.MaxInt64/16 - rng.Int64N(1<<30))
			}
			c := rtime.Duration(rng.Int64N(int64(period/3))) + 1
			if rng.Bool(0.5) {
				s, err := NewSporadic(c, period-rtime.Duration(rng.Int64N(int64(period-c)+1)), period)
				if err != nil {
					t.Fatal(err)
				}
				loc = append(loc, s)
				continue
			}
			o, err := NewOffloaded(c/3+1, c, period, period, rtime.Duration(rng.Int64N(int64(period/3))))
			if err == nil {
				off = append(off, o)
			}
		}
		got, ok := Theorem3(off, loc)
		want, wantOK := refTheorem3(off, loc)
		if got.Cmp(want) != 0 || ok != wantOK || got.String() != want.String() {
			t.Fatalf("trial %d: Theorem3 = (%v, %v), reference (%v, %v)", trial, got, ok, want, wantOK)
		}
		if ok {
			pass++
		} else {
			fail++
		}
	}
	if pass < 100 || fail < 100 {
		t.Fatalf("sweep passed %d and failed %d sets; want both ≥ 100", pass, fail)
	}
}
