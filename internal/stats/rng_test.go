package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical 64-bit draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// Zero seed must still be well mixed: first draws non-zero and distinct.
	x, y := r.Uint64(), r.Uint64()
	if x == 0 || y == 0 || x == y {
		t.Fatalf("zero seed poorly mixed: %x %x", x, y)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	// Child stream should differ from a re-seeded parent's stream.
	p2 := NewRNG(7)
	p2.Uint64() // consume the draw Fork used
	diff := false
	for i := 0; i < 100; i++ {
		if child.Uint64() != p2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("forked child replays parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(2)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if m := sum / float64(n); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ≈0.5", m)
	}
}

func TestIntN(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.IntN(10)]++
	}
	for d, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("digit %d drawn %d times, want ≈10000", d, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	r.IntN(0)
}

func TestUniformInt(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		v := r.UniformInt(600, 700)
		if v < 600 || v > 700 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
	}
	// Both endpoints must be reachable.
	lo, hi := false, false
	for i := 0; i < 100000 && !(lo && hi); i++ {
		switch r.UniformInt(0, 3) {
		case 0:
			lo = true
		case 3:
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatal("UniformInt endpoints unreachable")
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(5)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(10, 2)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.05 {
		t.Errorf("normal mean = %g, want ≈10", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.05 {
		t.Errorf("normal stddev = %g, want ≈2", s)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(6)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(3)
		if v < 0 {
			t.Fatalf("negative exponential draw %g", v)
		}
		sum += v
	}
	if m := sum / float64(n); math.Abs(m-3) > 0.05 {
		t.Errorf("exponential mean = %g, want ≈3", m)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("non-positive lognormal draw %g", v)
		}
	}
}

func TestUUniFast(t *testing.T) {
	r := NewRNG(9)
	for trial := 0; trial < 100; trial++ {
		u := r.UUniFast(8, 0.9)
		sum := 0.0
		for _, x := range u {
			if x < 0 {
				t.Fatalf("negative utilization %g", x)
			}
			sum += x
		}
		if math.Abs(sum-0.9) > 1e-9 {
			t.Fatalf("UUniFast sum = %g, want 0.9", sum)
		}
	}
	if u := r.UUniFast(0, 1); u != nil {
		t.Errorf("UUniFast(0) = %v, want nil", u)
	}
	if u := r.UUniFast(1, 0.5); len(u) != 1 || u[0] != 0.5 {
		t.Errorf("UUniFast(1, 0.5) = %v", u)
	}
}

func TestSortedUniform(t *testing.T) {
	r := NewRNG(10)
	v := r.SortedUniform(50, 100, 200)
	for i, x := range v {
		if x < 100 || x >= 200 {
			t.Fatalf("value out of range: %g", x)
		}
		if i > 0 && v[i-1] > x {
			t.Fatalf("not sorted at %d: %v", i, v)
		}
	}
}

// The regression the multi-seed experiments hit: with additive
// offsets (base + run·7919), base 7919/run 0 and base 0/run 1 are the
// same stream. DeriveSeed must keep adjacent bases and runs apart.
func TestDeriveSeedNoAdditiveCollisions(t *testing.T) {
	if DeriveSeed(7919, 0) == DeriveSeed(0, 1) {
		t.Fatal("DeriveSeed reproduces the additive-offset collision")
	}
	// Streams of adjacent base seeds must diverge immediately.
	for base := uint64(0); base < 8; base++ {
		a := NewRNG(DeriveSeed(base, 3))
		b := NewRNG(DeriveSeed(base+1, 3))
		if a.Uint64() == b.Uint64() {
			t.Fatalf("base %d and %d share a stream", base, base+1)
		}
	}
	// No collisions across a (base, stream, index) grid.
	seen := map[uint64][3]uint64{}
	for base := uint64(0); base < 20; base++ {
		for stream := uint64(0); stream < 12; stream++ {
			for idx := uint64(0); idx < 20; idx++ {
				s := DeriveSeed(base, stream, idx)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) vs %v", base, stream, idx, prev)
				}
				seen[s] = [3]uint64{base, stream, idx}
			}
		}
	}
}

func TestDeriveSeedPureAndPathSensitive(t *testing.T) {
	if DeriveSeed(5, 1, 2) != DeriveSeed(5, 1, 2) {
		t.Fatal("DeriveSeed not a pure function")
	}
	if DeriveSeed(5, 1, 2) == DeriveSeed(5, 2, 1) {
		t.Fatal("DeriveSeed ignores path order")
	}
	if DeriveSeed(5) == DeriveSeed(5, 0) {
		t.Fatal("DeriveSeed ignores path length")
	}
	if DeriveSeed(5) == NewRNG(5).Uint64() {
		t.Fatal("derived seed trivially equals the base stream")
	}
}

func TestUUniFastProperty(t *testing.T) {
	f := func(seed uint64, n uint8, tot uint8) bool {
		k := int(n%16) + 1
		total := float64(tot%100)/100 + 0.01
		u := NewRNG(seed).UUniFast(k, total)
		sum := 0.0
		for _, x := range u {
			if x < -1e-12 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
