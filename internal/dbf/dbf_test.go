package dbf

import (
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
	if s.Rate().Cmp(big.NewRat(1, 5)) != 0 {
		t.Errorf("Rate = %v", s.Rate())
	}
	// Burst = C(T−D)/T = 2ms·0.4 = 800µs.
	if s.Burst().Cmp(big.NewRat(800, 1)) != 0 {
		t.Errorf("Burst = %v", s.Burst())
	}
	// DBF(t) ≤ Rate·t + Burst everywhere.
	for tt := rtime.Duration(0); tt < ms(100); tt += 137 {
		lhs := new(big.Rat).SetInt64(int64(s.DBF(tt)))
		rhs := new(big.Rat).Add(mulRat(s.Rate(), tt), s.Burst())
		if lhs.Cmp(rhs) > 0 {
			t.Fatalf("DBF(%v) = %v exceeds Rate·t+Burst = %v", tt, lhs, rhs)
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
		h, err := Horizon([]Demand{o})
		if err != nil {
			t.Fatal(err)
		}
		limit := min(h, 10*period)
		for _, tt := range o.StepsUpTo(limit) {
			lhs := new(big.Rat).SetInt64(int64(o.DBF(tt)))
			bound := new(big.Rat).Mul(big.NewRat(o.Theorem1Rate().Num, o.Theorem1Rate().Den), tt.Rat())
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
	for trial := 0; trial < 50; trial++ {
		c1 := rtime.Duration(rng.Int64N(int64(ms(10)))) + 1
		c2 := rtime.Duration(rng.Int64N(int64(ms(20)))) + 1
		period := ms(rng.UniformInt(80, 300))
		r := rtime.Duration(rng.Int64N(int64(period / 3)))
		o, err := NewOffloaded(c1, c2, period, period, r)
		if err != nil {
			continue
		}
		rate, burst := o.Rate(), o.Burst()
		for tt := rtime.Duration(0); tt < 5*period; tt += period / 7 {
			lhs := new(big.Rat).SetInt64(int64(o.DBF(tt)))
			rhs := new(big.Rat).Add(mulRat(rate, tt), burst)
			if lhs.Cmp(rhs) > 0 {
				t.Fatalf("trial %d: DBF(%v)=%v > Rate·t+Burst=%v", trial, tt, lhs, rhs.FloatString(3))
			}
		}
	}
}
