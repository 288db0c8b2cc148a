package mckp

import (
	"math"
	"testing"

	"rtoffload/internal/stats"
)

func TestSolveBnBMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(2718)
	for trial := 0; trial < 400; trial++ {
		in := randInstance(rng, 7, 6)
		bf, errBF := SolveBruteForce(in)
		bnb, errBnB := SolveBnB(in)
		if (errBF == nil) != (errBnB == nil) {
			t.Fatalf("trial %d: feasibility disagrees: brute=%v bnb=%v", trial, errBF, errBnB)
		}
		if errBF != nil {
			continue
		}
		// BnB is exact (no quantization): profits must match.
		if math.Abs(bnb.Profit-bf.Profit) > 1e-9 {
			t.Fatalf("trial %d: BnB %g ≠ optimum %g", trial, bnb.Profit, bf.Profit)
		}
		if !bnb.fitsCapacity(in) {
			t.Fatalf("trial %d: BnB overweight %g", trial, bnb.Weight)
		}
	}
}

func TestSolveBnBNeverBelowHEU(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 200; trial++ {
		in := randInstance(rng, 12, 8)
		if !in.Feasible() {
			continue
		}
		heu, err := SolveHEU(in)
		if err != nil {
			t.Fatal(err)
		}
		bnb, err := SolveBnB(in)
		if err != nil {
			t.Fatal(err)
		}
		if bnb.Profit < heu.Profit-1e-9 {
			t.Fatalf("trial %d: BnB %g below its HEU seed %g", trial, bnb.Profit, heu.Profit)
		}
	}
}

func TestSolveBnBExactOnHairlineWeights(t *testing.T) {
	// Weights the DP grid cannot represent exactly: BnB accepts the
	// exact-fit solution, quantized DP may conservatively reject the
	// top item.
	in := inst(1,
		[][2]float64{{1.0 / 3, 1}, {2.0 / 3, 5}},
		[][2]float64{{1.0 / 3, 1}},
	)
	s, err := SolveBnB(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Profit != 6 {
		t.Fatalf("profit %g, want 6 (exact fit 2/3 + 1/3)", s.Profit)
	}
}

func TestSolveBnBInfeasible(t *testing.T) {
	in := inst(1, [][2]float64{{0.7, 1}}, [][2]float64{{0.7, 1}})
	if _, err := SolveBnB(in); err != ErrInfeasible {
		t.Fatalf("err = %v", err)
	}
	if _, err := SolveBnB(&Instance{Capacity: 1}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func BenchmarkSolveBnB30x10(b *testing.B) {
	rng := stats.NewRNG(1)
	in := &Instance{Capacity: 1}
	for i := 0; i < 30; i++ {
		c := Class{}
		for j := 0; j < 10; j++ {
			c.Items = append(c.Items, Item{Weight: rng.Uniform(0, 0.2), Profit: rng.Uniform(0, 1)})
		}
		in.Classes = append(in.Classes, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBnB(in); err != nil {
			b.Fatal(err)
		}
	}
}
