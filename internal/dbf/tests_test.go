package dbf

import (
	"errors"
	"math/big"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

func TestTheorem3Exact(t *testing.T) {
	// One offloaded task (5+30)/(100−20) = 7/16 and one local 2/10 = 1/5:
	// total 35/80 + 16/80 = 51/80.
	o, err := NewOffloaded(ms(5), ms(30), ms(100), ms(100), ms(20))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewSporadic(ms(2), ms(10), ms(10))
	if err != nil {
		t.Fatal(err)
	}
	total, ok := Theorem3([]Offloaded{o}, []Sporadic{l})
	if !ok {
		t.Fatal("feasible system rejected")
	}
	if total.Cmp(big.NewRat(51, 80)) != 0 {
		t.Errorf("total = %v, want 51/80", total)
	}
}

func TestTheorem3Boundary(t *testing.T) {
	// Exactly 1 passes; a hair over fails. Build locals 1/2 + 1/2.
	a, _ := NewSporadic(ms(5), ms(10), ms(10))
	b, _ := NewSporadic(ms(10), ms(20), ms(20))
	if total, ok := Theorem3(nil, []Sporadic{a, b}); !ok || total.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("total = %v ok = %v, want exactly 1, true", total, ok)
	}
	c, _ := NewSporadic(ms(10)+1, ms(20), ms(20))
	if _, ok := Theorem3(nil, []Sporadic{a, c}); ok {
		t.Error("over-unit total accepted")
	}
}

func TestHorizonOverloaded(t *testing.T) {
	a, _ := NewSporadic(ms(10), ms(10), ms(10))
	az, err := NewAnalyzer([]Demand{a, a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := az.Horizon(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if err := QPA([]Demand{a, a}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("QPA err = %v, want ErrOverloaded", err)
	}
	if _, err := refHorizon([]Demand{a, a}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("reference err = %v, want ErrOverloaded", err)
	}
}

func TestHorizonNoViolationBeyond(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 50; trial++ {
		ds := randomDemands(rng, 6, 0.95)
		az, err := NewAnalyzer(ds)
		if err != nil {
			t.Fatal(err)
		}
		h, err := az.Horizon()
		if err != nil {
			continue
		}
		// Check a spread of points beyond the horizon.
		for k := int64(1); k <= 5; k++ {
			tt := h + rtime.Duration(k)*ms(997)
			if dem := TotalDBF(ds, tt); dem > tt {
				t.Fatalf("trial %d: demand %v exceeds window %v beyond horizon %v", trial, dem, tt, h)
			}
		}
	}
}

// randomDemands generates a mix of sporadic and offloaded demands with
// total long-run rate roughly targetUtil (may exceed 1 occasionally
// when targetUtil is close to 1 — callers rely on Horizon to reject).
func randomDemands(rng *stats.RNG, n int, targetUtil float64) []Demand {
	utils := rng.UUniFast(n, targetUtil)
	ds := make([]Demand, 0, n)
	for i := 0; i < n; i++ {
		period := ms(rng.UniformInt(50, 500))
		c := rtime.Duration(utils[i] * float64(period))
		if c <= 0 {
			c = 1
		}
		if rng.Bool(0.5) {
			// Sporadic, sometimes constrained deadline.
			d := period
			if rng.Bool(0.3) {
				d = c + rtime.Duration(rng.Int64N(int64(period-c)+1))
			}
			s, err := NewSporadic(c, d, period)
			if err == nil {
				ds = append(ds, s)
			}
			continue
		}
		// Offloaded: split c into c1+c2 and pick r small enough to keep
		// the same long-run rate C1+C2 = c.
		c1 := c / 4
		if c1 <= 0 {
			c1 = 1
		}
		c2 := c - c1
		if c2 <= 0 {
			c2 = 1
		}
		r := rtime.Duration(rng.Int64N(int64(period / 3)))
		o, err := NewOffloaded(c1, c2, period, period, r)
		if err == nil {
			ds = append(ds, o)
		} else if s, err2 := NewSporadic(c, period, period); err2 == nil {
			ds = append(ds, s)
		}
	}
	return ds
}

func TestPDCAcceptsLightSystem(t *testing.T) {
	a, _ := NewSporadic(ms(1), ms(10), ms(10))
	b, _ := NewSporadic(ms(2), ms(20), ms(20))
	if err := pdc([]Demand{a, b}); err != nil {
		t.Fatalf("light system rejected: %v", err)
	}
	if err := QPA([]Demand{a, b}); err != nil {
		t.Fatalf("QPA rejected light system: %v", err)
	}
}

func TestPDCDetectsShortWindowOverload(t *testing.T) {
	// Two tasks, low utilization but both deadlines at 10ms with 6ms
	// each: demand 12ms in a 10ms window.
	a, _ := NewSporadic(ms(6), ms(10), ms(100))
	b, _ := NewSporadic(ms(6), ms(10), ms(100))
	err := pdc([]Demand{a, b})
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("PDC err = %v, want Violation", err)
	}
	if v.T != ms(10) || v.Demand != ms(12) {
		t.Errorf("violation = %+v", v)
	}
	err = QPA([]Demand{a, b})
	if !errors.As(err, &v) {
		t.Fatalf("QPA err = %v, want Violation", err)
	}
	if v.Demand <= v.T {
		t.Errorf("QPA violation inconsistent: %+v", v)
	}
}

func TestPDCQPAAgree(t *testing.T) {
	rng := stats.NewRNG(4242)
	feasible, infeasible := 0, 0
	for trial := 0; trial < 400; trial++ {
		// Half the trials target overload-prone short deadlines.
		var ds []Demand
		if trial%2 == 0 {
			ds = randomDemands(rng, 5, rng.Uniform(0.4, 0.99))
		} else {
			// Constrained deadlines cause short-window overloads even
			// at modest utilization.
			n := rng.IntN(4) + 2
			for i := 0; i < n; i++ {
				period := ms(rng.UniformInt(20, 100))
				c := rtime.Duration(rng.Int64N(int64(period/3))) + 1
				d := c + rtime.Duration(rng.Int64N(int64(period-c)+1))
				if d > period {
					d = period
				}
				if s, err := NewSporadic(c, d, period); err == nil {
					ds = append(ds, s)
				}
			}
		}
		if len(ds) == 0 {
			continue
		}
		if refTotalRate(ds).Cmp(big.NewRat(1, 1)) >= 0 {
			continue
		}
		errP := pdc(ds)
		errQ := QPA(ds)
		if (errP == nil) != (errQ == nil) {
			t.Fatalf("trial %d: PDC=%v QPA=%v disagree", trial, errP, errQ)
		}
		if errR := refQPA(ds); !sameVerdict(errQ, errR) {
			t.Fatalf("trial %d: QPA=%v, reference QPA=%v", trial, errQ, errR)
		}
		if errP == nil {
			feasible++
		} else {
			infeasible++
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("degenerate coverage: feasible=%d infeasible=%d", feasible, infeasible)
	}
}

// The paper's Theorem 3 is a sufficient test: any system it accepts
// must also pass the exact processor-demand criterion. (D1 flooring
// introduces sub-µs slack requirements; the deterministic seeds below
// exercise 300 random systems including near-capacity ones.)
func TestTheorem3ImpliesPDC(t *testing.T) {
	rng := stats.NewRNG(777)
	accepted := 0
	for trial := 0; trial < 300; trial++ {
		var off []Offloaded
		var loc []Sporadic
		var ds []Demand
		n := rng.IntN(8) + 2
		for i := 0; i < n; i++ {
			period := ms(rng.UniformInt(50, 700))
			c := rtime.Duration(rng.Int64N(int64(period/4))) + 1
			if rng.Bool(0.5) {
				s, err := NewSporadic(c, period, period)
				if err != nil {
					continue
				}
				loc = append(loc, s)
				ds = append(ds, s)
			} else {
				c1 := rtime.Duration(rng.Int64N(int64(c))) + 1
				r := rtime.Duration(rng.Int64N(int64(period / 2)))
				o, err := NewOffloaded(c1, c, period, period, r)
				if err != nil {
					continue
				}
				off = append(off, o)
				ds = append(ds, o)
			}
		}
		if len(ds) == 0 {
			continue
		}
		if _, ok := Theorem3(off, loc); !ok {
			continue
		}
		accepted++
		if err := pdc(ds); err != nil {
			t.Fatalf("trial %d: Theorem 3 accepted but PDC found %v", trial, err)
		}
	}
	if accepted < 50 {
		t.Fatalf("only %d systems accepted by Theorem 3; generator too aggressive", accepted)
	}
}

// QPA/PDC are strictly tighter than Theorem 3: build a system Theorem 3
// rejects (rate sum > 1) that the exact test accepts, because the
// linear bound over-approximates the floor-shaped true demand.
func TestExactTestTighterThanTheorem3(t *testing.T) {
	// Offloaded task with large R: Theorem-1 rate (C1+C2)/(D−R) is huge,
	// but the true per-period demand is modest.
	o, err := NewOffloaded(ms(10), ms(30), ms(100), ms(100), ms(55))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewSporadic(ms(20), ms(100), ms(100))
	if err != nil {
		t.Fatal(err)
	}
	total, ok := Theorem3([]Offloaded{o}, []Sporadic{l})
	if ok {
		t.Skipf("expected Theorem 3 rejection, got total %v", total)
	}
	if err := pdc([]Demand{o, l}); err != nil {
		t.Fatalf("exact test rejected too: %v", err)
	}
	if err := QPA([]Demand{o, l}); err != nil {
		t.Fatalf("QPA rejected: %v", err)
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{T: ms(10), Demand: ms(12)}
	if v.Error() == "" {
		t.Error("empty violation message")
	}
}
