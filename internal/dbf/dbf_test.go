package dbf

import (
	"math"
	"math/big"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

func ms(v int64) rtime.Duration { return rtime.FromMillis(v) }

func TestNewSporadicValidation(t *testing.T) {
	if _, err := NewSporadic(ms(2), ms(10), ms(10)); err != nil {
		t.Fatalf("valid sporadic rejected: %v", err)
	}
	bad := [][3]rtime.Duration{
		{ms(2), ms(10), 0},
		{ms(2), 0, ms(10)},
		{ms(2), ms(11), ms(10)},
		{0, ms(10), ms(10)},
		{ms(11), ms(10), ms(10)},
	}
	for i, b := range bad {
		if _, err := NewSporadic(b[0], b[1], b[2]); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSporadicDBF(t *testing.T) {
	s, _ := NewSporadic(ms(2), ms(6), ms(10))
	cases := []struct {
		t    rtime.Duration
		want rtime.Duration
	}{
		{0, 0},
		{ms(5), 0},
		{ms(6), ms(2)},
		{ms(15), ms(2)},
		{ms(16), ms(4)},
		{ms(26), ms(6)},
	}
	for _, c := range cases {
		if got := s.DBF(c.t); got != c.want {
			t.Errorf("DBF(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSporadicRateBurst(t *testing.T) {
	s, _ := NewSporadic(ms(2), ms(6), ms(10))
	st, ok := s.stat()
	if !ok {
		t.Fatal("stat refused a valid sporadic demand")
	}
	rate, burst := st.rats()
	if rate.Cmp(big.NewRat(1, 5)) != 0 {
		t.Errorf("rate = %v", rate)
	}
	// Burst = C(T−D)/T = 2ms·0.4 = 800µs.
	if burst.Cmp(big.NewRat(800, 1)) != 0 {
		t.Errorf("burst = %v", burst)
	}
	checkStatBound(t, s)
	// DBF(t)·T ≤ rate·t + burst on random sporadic demands, a third
	// of them with constrained deadlines.
	rng := stats.NewRNG(29)
	for trial := 0; trial < 200; trial++ {
		period := rtime.Duration(rng.Int64N(int64(ms(300)))) + 1
		d := period
		if rng.Bool(0.3) {
			d = rtime.Duration(rng.Int64N(int64(period))) + 1
		}
		s, err := NewSporadic(rtime.Duration(rng.Int64N(int64(d)))+1, d, period)
		if err != nil {
			t.Fatal(err)
		}
		checkStatBound(t, s)
	}
}

// rats returns the stat's rate and burst as rationals over its den.
func (st demandStat) rats() (rate, burst *big.Rat) {
	var tmp big.Int
	den := big.NewInt(st.den)
	return big.NewRat(st.rate, st.den), new(big.Rat).SetFrac(st.burst.setBig(new(big.Int), &tmp), den)
}

// checkStatBound checks the shipped model's bound
// DBF(t)·den ≤ rate·t + burst, in integers, at every step of d up to
// six periods: DBF is constant between steps while the bound grows,
// so the steps are where it is tightest.
func checkStatBound(t *testing.T, d Demand) {
	t.Helper()
	st, ok := d.stat()
	if !ok {
		t.Fatalf("%+v: stat refused a valid demand", d)
	}
	var tmp big.Int
	burst := st.burst.setBig(new(big.Int), &tmp)
	steps := d.(interface {
		StepsUpTo(rtime.Duration) []rtime.Duration
	}).StepsUpTo(6 * rtime.Duration(st.den))
	if len(steps) < 6 {
		t.Fatalf("%+v: %d steps in six periods", d, len(steps))
	}
	for _, tt := range steps {
		lhs := new(big.Int).Mul(big.NewInt(int64(d.DBF(tt))), big.NewInt(st.den))
		rhs := new(big.Int).Mul(big.NewInt(st.rate), big.NewInt(int64(tt)))
		if rhs.Add(rhs, burst); lhs.Cmp(rhs) > 0 {
			t.Fatalf("%+v: DBF(%v)·T = %v exceeds rate·t+burst = %v", d, tt, lhs, rhs)
		}
	}
}

func TestSporadicSteps(t *testing.T) {
	s, _ := NewSporadic(ms(2), ms(6), ms(10))
	steps := s.StepsUpTo(ms(30))
	want := []rtime.Duration{ms(6), ms(16), ms(26)}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps = %v, want %v", steps, want)
		}
	}
	if p := s.PrevStep(ms(16)); p != ms(6) {
		t.Errorf("PrevStep(16ms) = %v", p)
	}
	if p := s.PrevStep(ms(17)); p != ms(16) {
		t.Errorf("PrevStep(17ms) = %v", p)
	}
	if p := s.PrevStep(ms(6)); p != 0 {
		t.Errorf("PrevStep(6ms) = %v", p)
	}
}

func TestSplitDeadline(t *testing.T) {
	// D1 = C1(D−R)/(C1+C2) = 5·(100−20)/35 ms = 80/7 ms.
	d1, err := SplitDeadline(ms(5), ms(30), ms(100), ms(20))
	if err != nil {
		t.Fatal(err)
	}
	want := rtime.Duration(int64(ms(5)) * int64(ms(80)) / int64(ms(35)))
	if d1 != want {
		t.Errorf("D1 = %v, want %v", d1, want)
	}
	// Floored to the grid, never above the exact value.
	exact := big.NewRat(int64(ms(5))*int64(ms(80)), int64(ms(35)))
	if new(big.Rat).SetInt64(int64(d1)).Cmp(exact) > 0 {
		t.Error("D1 rounded up")
	}
}

func TestSplitDeadlineErrors(t *testing.T) {
	cases := [][4]rtime.Duration{
		{0, ms(30), ms(100), ms(20)},
		{ms(5), 0, ms(100), ms(20)},
		{ms(5), ms(30), ms(100), -1},
		{ms(5), ms(30), ms(100), ms(100)},
		{ms(5), ms(30), ms(100), ms(120)},
	}
	for i, c := range cases {
		if _, err := SplitDeadline(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Underflow: C1=1µs, C2=1s, D−R=100µs → D1 = 0.
	if _, err := SplitDeadline(1, rtime.Second, 100, 0); err == nil {
		t.Error("underflowing split deadline accepted")
	}
}

func TestNewOffloaded(t *testing.T) {
	o, err := NewOffloaded(ms(5), ms(30), ms(100), ms(100), ms(20))
	if err != nil {
		t.Fatal(err)
	}
	if o.D1 <= 0 || o.D1 >= o.D-o.R {
		t.Fatalf("D1 = %v out of range", o.D1)
	}
	// Theorem-1 rate = 35/80, 7/16 in lowest terms.
	if o.Theorem1Rate() != (Frac{Num: 7, Den: 16}) {
		t.Errorf("Theorem1Rate = %v", o.Theorem1Rate())
	}
	// Over-dense task must be rejected: C1+C2 > D−R.
	if _, err := NewOffloaded(ms(50), ms(50), ms(100), ms(100), ms(20)); err == nil {
		t.Error("over-dense offloaded task accepted")
	}
	if _, err := NewOffloaded(ms(5), ms(30), ms(120), ms(100), ms(20)); err == nil {
		t.Error("D > T accepted")
	}
}

func TestOffloadedDBFSmallWindows(t *testing.T) {
	o, err := NewOffloaded(ms(5), ms(30), ms(100), ms(100), ms(20))
	if err != nil {
		t.Fatal(err)
	}
	// Alignment (b)'s first step is D−D1−R; a C2 sub-job must fit there.
	first := o.D - o.D1 - o.R
	if got := o.DBF(first); got != o.C2 {
		t.Errorf("DBF(D−D1−R) = %v, want C2 = %v", got, o.C2)
	}
	if got := o.DBF(first - 1); got >= o.C2 {
		t.Errorf("DBF just below first step = %v", got)
	}
	// Window of the setup deadline sees C1.
	if got := o.DBF(o.D1); got < o.C1 {
		t.Errorf("DBF(D1) = %v < C1", got)
	}
	// Full deadline window sees the whole job.
	if got := o.DBF(o.D); got < o.C1+o.C2 {
		t.Errorf("DBF(D) = %v < C1+C2", got)
	}
	if o.DBF(0) != 0 || o.DBF(-5) != 0 {
		t.Error("DBF of empty window non-zero")
	}
}

// Theorem 1: the exact split DBF never exceeds the paper's linear
// bound (C1+C2)/(D−R)·t, the Theorem1Rate weight times t, by more than
// the 1µs grid-flooring of D1 per involved job.
func TestOffloadedLinearBoundTheorem1(t *testing.T) {
	rng := stats.NewRNG(21)
	for trial := 0; trial < 200; trial++ {
		c1 := rtime.Duration(rng.Int64N(int64(ms(20)))) + 1
		c2 := rtime.Duration(rng.Int64N(int64(ms(20)))) + 1
		period := ms(rng.UniformInt(100, 700))
		r := rtime.Duration(rng.Int64N(int64(period / 2)))
		o, err := NewOffloaded(c1, c2, period, period, r)
		if err != nil {
			continue // over-dense draw
		}
		az, err := NewAnalyzer([]Demand{o})
		if err != nil {
			t.Fatal(err)
		}
		h, err := az.Horizon()
		if err != nil {
			t.Fatal(err)
		}
		limit := min(h, 10*period)
		for _, tt := range o.StepsUpTo(limit) {
			lhs := new(big.Rat).SetInt64(int64(o.DBF(tt)))
			bound := new(big.Rat).Mul(big.NewRat(o.Theorem1Rate().Num, o.Theorem1Rate().Den), durRat(tt))
			slack := new(big.Rat).Sub(lhs, bound)
			// Grid flooring of D1 can cost < 1µs per job deadline.
			jobs := big.NewRat(int64(tt/o.T)+2, 1)
			if slack.Cmp(jobs) > 0 {
				t.Fatalf("trial %d: DBF(%v) = %v exceeds linear bound %v by %v",
					trial, tt, lhs, bound.FloatString(3), slack.FloatString(3))
			}
		}
	}
}

func TestOffloadedDBFMonotone(t *testing.T) {
	o, err := NewOffloaded(ms(3), ms(12), ms(50), ms(60), ms(10))
	if err != nil {
		t.Fatal(err)
	}
	prev := rtime.Duration(0)
	for tt := rtime.Duration(0); tt <= ms(300); tt += 97 {
		cur := o.DBF(tt)
		if cur < prev {
			t.Fatalf("DBF decreased at %v: %v < %v", tt, cur, prev)
		}
		prev = cur
	}
}

func TestOffloadedStepsCoverIncreases(t *testing.T) {
	o, err := NewOffloaded(ms(3), ms(12), ms(50), ms(60), ms(10))
	if err != nil {
		t.Fatal(err)
	}
	limit := ms(250)
	steps := o.StepsUpTo(limit)
	idx := map[rtime.Duration]bool{}
	for _, s := range steps {
		idx[s] = true
	}
	// Scan microsecond-ish grid: every increase point must be a step.
	prev := o.DBF(0)
	for tt := rtime.Duration(1); tt <= limit; tt++ {
		cur := o.DBF(tt)
		if cur > prev && !idx[tt] {
			t.Fatalf("DBF increases at %v which is not in steps", tt)
		}
		prev = cur
	}
}

func TestOffloadedPrevStep(t *testing.T) {
	o, err := NewOffloaded(ms(3), ms(12), ms(50), ms(60), ms(10))
	if err != nil {
		t.Fatal(err)
	}
	steps := o.StepsUpTo(ms(500))
	for i := 1; i < len(steps); i++ {
		if p := o.PrevStep(steps[i]); p != steps[i-1] {
			t.Fatalf("PrevStep(%v) = %v, want %v", steps[i], p, steps[i-1])
		}
	}
	if p := o.PrevStep(steps[0]); p != 0 {
		t.Errorf("PrevStep(first) = %v", p)
	}
}

func TestBurstBoundsOffloaded(t *testing.T) {
	rng := stats.NewRNG(31)
	checked := 0
	for trial := 0; trial < 50; trial++ {
		c1 := rtime.Duration(rng.Int64N(int64(ms(10)))) + 1
		c2 := rtime.Duration(rng.Int64N(int64(ms(20)))) + 1
		period := ms(rng.UniformInt(80, 300))
		r := rtime.Duration(rng.Int64N(int64(period / 3)))
		o, err := NewOffloaded(c1, c2, period, period, r)
		if err != nil {
			continue
		}
		checkStatBound(t, o)
		checked++
	}
	// Small periods with constrained deadlines reach every offset
	// order, including offsets equal to T.
	for checked < 2000 {
		if o, ok := randOffloaded(rng, 60); ok {
			checkStatBound(t, o)
			checked++
		}
	}
}

// refOffloadedDBF is the four-division form of Offloaded.DBF: each
// offset's deadline count is its own floor division by T. It is the
// oracle of the one-division form.
func refOffloadedDBF(o Offloaded, t rtime.Duration) rtime.Duration {
	if t <= 0 {
		return 0
	}
	a := addDur(mulDur(o.C1, count(t, o.D1, o.T)),
		mulDur(o.C2, count(t, o.D, o.T)))
	b := addDur(mulDur(o.C2, count(t, o.D-o.D1-o.R, o.T)),
		mulDur(o.C1, count(t, o.T-o.R, o.T)))
	return rtime.Max(a, b)
}

// refOffloadedPrevStep is the four-division form of Offloaded.PrevStep.
func refOffloadedPrevStep(o Offloaded, t rtime.Duration) rtime.Duration {
	best := rtime.Duration(0)
	for _, off := range o.offsets() {
		if off <= 0 {
			continue
		}
		if p := prevForOffset(t, off, o.T); p > best {
			best = p
		}
	}
	return best
}

// randOffloaded draws a valid offloaded demand with period at most
// maxT µs, half of them with D = T, including zero budgets, budgets
// that make an offset equal T, and 1µs periods.
func randOffloaded(rng *stats.RNG, maxT int64) (Offloaded, bool) {
	period := rtime.Duration(rng.Int64N(maxT) + 1)
	d := period
	if rng.Bool(0.5) {
		d = rtime.Duration(rng.Int64N(int64(period))) + 1
	}
	c1 := rtime.Duration(rng.Int64N(int64(d))) + 1
	c2 := rtime.Duration(rng.Int64N(int64(d))) + 1
	r := rtime.Duration(rng.Int64N(int64(d)))
	o, err := NewOffloaded(c1, c2, d, period, r)
	return o, err == nil
}

// TestOffloadedOneDivisionMatchesOracle holds the one-division DBF and
// PrevStep to their four-division oracles at every window length up
// to four periods of small random demands, at t ≤ 1, and at windows
// up to the int64 ceiling.
func TestOffloadedOneDivisionMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(7411)
	drawn := 0
	for drawn < 3000 {
		o, ok := randOffloaded(rng, 60)
		if !ok {
			continue
		}
		drawn++
		check := func(tt rtime.Duration) {
			if got, want := o.DBF(tt), refOffloadedDBF(o, tt); got != want {
				t.Fatalf("%+v: DBF(%d) = %d, oracle %d", o, tt, got, want)
			}
			if got, want := o.PrevStep(tt), refOffloadedPrevStep(o, tt); got != want {
				t.Fatalf("%+v: PrevStep(%d) = %d, oracle %d", o, tt, got, want)
			}
		}
		for tt := rtime.Duration(-2); tt <= 4*o.T+1; tt++ {
			check(tt)
		}
		for k := rtime.Duration(0); k < 2*o.T+2; k++ {
			check(math.MaxInt64 - k)
			check(math.MaxInt64/2 + k)
		}
	}
}

// TestDominatesImpliesPointwise checks the soundness of Dominates:
// whenever it holds, a's DBF is at or above b's at every step of
// either demand up to several periods (both are step functions that
// change only at their steps), and so are its long-run rate and burst
// (stat), which keeps the analysis horizon in the same order. Pairs share T and D,
// as the levels of one task do, and the test requires both verdicts
// to occur.
func TestDominatesImpliesPointwise(t *testing.T) {
	rng := stats.NewRNG(7412)
	held, failed := 0, 0
	for trial := 0; trial < 20000; trial++ {
		a, ok := randOffloaded(rng, 400)
		if !ok {
			continue
		}
		var b Demand
		if rng.Bool(0.3) {
			s, err := NewSporadic(rtime.Duration(rng.Int64N(int64(a.D)))+1, a.D, a.T)
			if err != nil {
				continue
			}
			b = s
		} else {
			// Half the pairs are near a: smaller sub-jobs and a
			// budget a few µs either side, where single conditions
			// decide.
			c1, c2 := a.C1, a.C2
			r := a.R + rtime.Duration(rng.Int64N(11)) - 5
			if rng.Bool(0.5) {
				c1, c2 = a.D, a.D
				r = rtime.Duration(rng.Int64N(int64(a.D)))
			}
			o, err := NewOffloaded(rtime.Duration(rng.Int64N(int64(c1)))+1,
				rtime.Duration(rng.Int64N(int64(c2)))+1, a.D, a.T, r)
			if err != nil {
				continue
			}
			b = o
		}
		if !Dominates(a, b) {
			failed++
			continue
		}
		held++
		limit := 6 * a.T
		var steps []rtime.Duration
		switch b := b.(type) {
		case Sporadic:
			steps = b.StepsUpTo(limit)
		case Offloaded:
			steps = b.StepsUpTo(limit)
		}
		for _, tt := range append(steps, a.StepsUpTo(limit)...) {
			if a.DBF(tt) < b.DBF(tt) {
				t.Fatalf("Dominates(%+v, %+v) but DBF(%d) = %d < %d", a, b, tt, a.DBF(tt), b.DBF(tt))
			}
		}
		sa, _ := a.stat()
		sb, _ := b.stat()
		ra, ba := sa.rats()
		rb, bb := sb.rats()
		if ra.Cmp(rb) < 0 || ba.Cmp(bb) < 0 {
			t.Fatalf("Dominates(%+v, %+v) but rate %v, burst %v below %v, %v",
				a, b, ra, ba, rb, bb)
		}
	}
	if held < 100 || failed < 100 {
		t.Fatalf("sweep decided %d dominating and %d other pairs; want both ≥ 100", held, failed)
	}
	if Dominates(Sporadic{C: 1, D: 5, T: 5}, Sporadic{C: 1, D: 5, T: 5}) {
		t.Error("a sporadic demand is never the dominating side")
	}
}
