package rtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUnits(t *testing.T) {
	if Millisecond != 1000 {
		t.Fatalf("Millisecond = %d µs, want 1000", int64(Millisecond))
	}
	if Second != 1_000_000 {
		t.Fatalf("Second = %d µs, want 1e6", int64(Second))
	}
	if Minute != 60*Second {
		t.Fatalf("Minute = %d", int64(Minute))
	}
}

func TestConversions(t *testing.T) {
	cases := []struct {
		d    Duration
		ms   float64
		sec  float64
		usec int64
	}{
		{0, 0, 0, 0},
		{FromMillis(100), 100, 0.1, 100_000},
		{FromMicros(1500), 1.5, 0.0015, 1500},
		{FromSeconds(2), 2000, 2, 2_000_000},
		{FromMillisF(0.25), 0.25, 0.00025, 250},
		{FromMillisF(195.2814), 195.281, 0.195281, 195_281},
	}
	for _, c := range cases {
		if got := int64(c.d); got != c.usec {
			t.Errorf("%v = %d µs, want %d", c.d, got, c.usec)
		}
		if got := c.d.Millis(); math.Abs(got-c.ms) > 1e-3 {
			t.Errorf("%v.Millis() = %g, want %g", c.d, got, c.ms)
		}
		if got := c.d.Seconds(); math.Abs(got-c.sec) > 1e-6 {
			t.Errorf("%v.Seconds() = %g, want %g", c.d, got, c.sec)
		}
	}
}

func TestFromSecondsRounds(t *testing.T) {
	// 1.0000004 s → 1000000.4 µs → rounds to 1000000.
	if got := FromSeconds(1.0000004); got != Second {
		t.Fatalf("FromSeconds(1.0000004) = %d, want %d", got, Second)
	}
	// 1.0000006 s rounds up.
	if got := FromSeconds(1.0000006); got != Second+1 {
		t.Fatalf("FromSeconds(1.0000006) = %d, want %d", got, Second+1)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{10 * Second, "10s"},
		{FromMillis(250), "250ms"},
		{FromMicros(42), "42µs"},
		{FromMillisF(1.5), "1.5ms"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%d µs) = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if got := Forever.String(); got != "∞" {
		t.Errorf("Forever.String() = %q", got)
	}
	if got := Instant(Second).String(); got != "1s" {
		t.Errorf("Instant(1s).String() = %q", got)
	}
}

func TestInstantArithmetic(t *testing.T) {
	t0 := Instant(FromMillis(10))
	t1 := t0.Add(FromMillis(5))
	if t1 != Instant(FromMillis(15)) {
		t.Fatalf("Add: got %v", t1)
	}
	if d := t1.Sub(t0); d != FromMillis(5) {
		t.Fatalf("Sub: got %v", d)
	}
	if d := t0.Sub(t1); d != -FromMillis(5) {
		t.Fatalf("negative Sub: got %v", d)
	}
}

func TestMinMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max broken")
	}
	if MinInstant(3, 4) != 3 || MaxInstant(3, 4) != 4 {
		t.Error("instant min/max broken")
	}
}

func TestGCD(t *testing.T) {
	if g := GCD(12, 18); g != 6 {
		t.Errorf("GCD(12,18) = %d", g)
	}
	if g := GCD(0, 7); g != 7 {
		t.Errorf("GCD(0,7) = %d", g)
	}
}

func TestGCDProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := Duration(a), Duration(b)
		g := GCD(x, y)
		if x == 0 && y == 0 {
			return g == 0
		}
		return g > 0 && x%g == 0 && y%g == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilFloorDiv(t *testing.T) {
	if q := CeilDiv(10, 3); q != 4 {
		t.Errorf("CeilDiv(10,3) = %d", q)
	}
	if q := CeilDiv(9, 3); q != 3 {
		t.Errorf("CeilDiv(9,3) = %d", q)
	}
	if q := CeilDiv(0, 3); q != 0 {
		t.Errorf("CeilDiv(0,3) = %d", q)
	}
	if q := CeilDiv(-5, 3); q != 0 {
		t.Errorf("CeilDiv(-5,3) = %d", q)
	}
	if q := FloorDiv(10, 3); q != 3 {
		t.Errorf("FloorDiv(10,3) = %d", q)
	}
	if q := FloorDiv(-1, 3); q != -1 {
		t.Errorf("FloorDiv(-1,3) = %d", q)
	}
	if q := FloorDiv(-3, 3); q != -1 {
		t.Errorf("FloorDiv(-3,3) = %d", q)
	}
}

func TestCeilFloorDivProperty(t *testing.T) {
	f := func(a int16, b uint8) bool {
		d := Duration(b) + 1
		x := Duration(a)
		fl, cl := FloorDiv(x, d), CeilDiv(x, d)
		if Duration(fl)*d > x || Duration(fl+1)*d <= x {
			return false
		}
		if x > 0 {
			return Duration(cl)*d >= x && Duration(cl-1)*d < x
		}
		return cl == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(1,0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestRatio(t *testing.T) {
	r := Ratio(FromMillis(1), FromMillis(3))
	if r.Cmp(Ratio(1, 3)) != 0 {
		t.Errorf("Ratio(1ms,3ms) = %v, want 1/3", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ratio with zero denominator did not panic")
		}
	}()
	Ratio(1, 0)
}
