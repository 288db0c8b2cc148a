package stats

import (
	"math"
	"testing"
)

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Mean = %g", m)
	}
	if s := StdDev([]float64{5}); s != 0 {
		t.Errorf("StdDev single = %g", s)
	}
	if s := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(s-2.13809) > 1e-4 {
		t.Errorf("StdDev = %g, want ≈2.138", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-sample percentile = %g", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMeanCI(t *testing.T) {
	m, h := MeanCI(nil, 1.96)
	if m != 0 || h != 0 {
		t.Errorf("empty MeanCI = %g±%g", m, h)
	}
	m, h = MeanCI([]float64{5}, 1.96)
	if m != 5 || h != 0 {
		t.Errorf("single MeanCI = %g±%g", m, h)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, h = MeanCI(xs, 1.96)
	if m != 5 {
		t.Errorf("mean = %g", m)
	}
	// half = 1.96·s/√n with s ≈ 2.138, n = 8 → ≈1.4816.
	if math.Abs(h-1.4816) > 1e-3 {
		t.Errorf("half = %g, want ≈1.4816", h)
	}
	// Wider z → wider interval.
	_, h99 := MeanCI(xs, 2.58)
	if h99 <= h {
		t.Errorf("z=2.58 interval %g not wider than %g", h99, h)
	}
}

func TestTCritical95(t *testing.T) {
	// Spot checks against the published table.
	cases := map[int]float64{
		2:  12.706, // df = 1
		3:  4.303,  // the default multi-seed run
		5:  2.776,
		10: 2.262,
		30: 2.045,
	}
	for n, want := range cases {
		if got := TCritical95(n); math.Abs(got-want) > 1e-9 {
			t.Errorf("TCritical95(%d) = %g, want %g", n, got, want)
		}
	}
	// Undefined below two samples.
	if TCritical95(0) != 0 || TCritical95(1) != 0 {
		t.Error("TCritical95 below n=2 must be 0")
	}
	// Falls back to z above 30 and never increases with n.
	if got := TCritical95(31); got != 1.96 {
		t.Errorf("TCritical95(31) = %g, want 1.96", got)
	}
	prev := math.Inf(1)
	for n := 2; n <= 40; n++ {
		v := TCritical95(n)
		if v > prev {
			t.Fatalf("TCritical95 not monotone at n=%d: %g > %g", n, v, prev)
		}
		prev = v
	}
}
