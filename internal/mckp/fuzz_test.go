package mckp

import (
	"math"
	"testing"

	"rtoffload/internal/stats"
)

// fuzzDPRes is the capacity grid used for the SolveDP cross-check.
const fuzzDPRes = 100000

// quantizeWeights returns a copy of in with every weight rounded up to
// the fuzzDPRes capacity grid — exactly the instance SolveDP solves.
// Profits are unchanged, so the DP's profit must match an exact solve
// of the quantized instance to float tolerance (no fudge factor: the
// quantization loss lives in the instance, not in the comparison).
func quantizeWeights(in *Instance) *Instance {
	q := &Instance{Capacity: in.Capacity, Classes: make([]Class, len(in.Classes))}
	for i, c := range in.Classes {
		items := make([]Item, len(c.Items))
		for j, it := range c.Items {
			cells := math.Ceil(it.Weight / in.Capacity * fuzzDPRes)
			items[j] = Item{Weight: cells / fuzzDPRes * in.Capacity, Profit: it.Profit}
		}
		q.Classes[i] = Class{Label: c.Label, Items: items}
	}
	return q
}

// fuzzInstance builds a deterministic random instance with exactly n
// classes of m items (capacity 1, the offloading shape).
func fuzzInstance(rng *stats.RNG, n, m int) *Instance {
	in := &Instance{Capacity: 1}
	for i := 0; i < n; i++ {
		c := Class{}
		for j := 0; j < m; j++ {
			c.Items = append(c.Items, Item{
				Weight: rng.Uniform(0, 0.8),
				Profit: rng.Uniform(0, 10),
			})
		}
		in.Classes = append(in.Classes, c)
	}
	return in
}

// FuzzMCKPSolverAgreement cross-checks every solver on one random
// instance — all agree on feasibility; the exact solvers (Solver,
// SolveBnB, SolveBruteForce when small) agree on profit to 1e-9;
// SolveDP agrees within its quantization tolerance; SolveHEU never
// exceeds the optimum — then drives the persistent Solver through a
// churn stream and requires every warm re-solve to be bit-identical
// to a cold from-scratch solve of the same instance.
func FuzzMCKPSolverAgreement(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(5))
	f.Add(uint64(7), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(42), uint8(8), uint8(6), uint8(9))
	f.Add(uint64(1234), uint8(12), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, churnRaw uint8) {
		n := int(nRaw)%10 + 1
		m := int(mRaw)%8 + 1
		churn := int(churnRaw) % 12
		rng := stats.NewRNG(stats.DeriveSeed(seed, 402))
		in := fuzzInstance(rng, n, m)

		warm, err := NewSolverFrom(in)
		if err != nil {
			t.Fatalf("NewSolverFrom: %v", err)
		}
		exact, errExact := warm.Solve()
		bnb, errBnB := SolveBnB(in)
		dp, errDP := SolveDP(in, fuzzDPRes)
		heu, errHEU := SolveHEU(in)
		if (errExact != nil) != (errBnB != nil) || (errExact != nil) != (errHEU != nil) {
			t.Fatalf("feasibility disagreement: solver=%v bnb=%v heu=%v", errExact, errBnB, errHEU)
		}
		// The DP sees up-rounded weights, so it may conservatively call
		// a knife-edge instance infeasible; it must never accept one
		// the exact solvers reject, and when it answers it must match
		// an exact solve of the quantized instance it actually solved.
		if errDP == nil && errExact != nil {
			t.Fatalf("dp feasible but exact solver infeasible: %v", errExact)
		}
		bnbQ, errBnBQ := SolveBnB(quantizeWeights(in))
		if (errDP != nil) != (errBnBQ != nil) {
			t.Fatalf("quantized feasibility disagreement: dp=%v bnbQ=%v", errDP, errBnBQ)
		}
		if errDP == nil && math.Abs(dp.Profit-bnbQ.Profit) > 1e-9 {
			t.Fatalf("dp %.12f vs exact-on-quantized %.12f", dp.Profit, bnbQ.Profit)
		}
		if errExact == nil {
			if math.Abs(exact.Profit-bnb.Profit) > 1e-9 {
				t.Fatalf("solver %.12f vs bnb %.12f", exact.Profit, bnb.Profit)
			}
			if errDP == nil && dp.Profit > exact.Profit+1e-9 {
				t.Fatalf("dp %.12f exceeds optimum %.12f", dp.Profit, exact.Profit)
			}
			if heu.Profit > exact.Profit+1e-9 {
				t.Fatalf("heu %.12f exceeds optimum %.12f", heu.Profit, exact.Profit)
			}
			if !exact.fitsCapacity(in) {
				t.Fatalf("solver solution weight %f over capacity", exact.Weight)
			}
			if n <= 5 && m <= 6 {
				bf, errBF := SolveBruteForce(in)
				if errBF != nil {
					t.Fatalf("brute force infeasible after solver succeeded: %v", errBF)
				}
				if math.Abs(exact.Profit-bf.Profit) > 1e-9 {
					t.Fatalf("solver %.12f vs brute %.12f", exact.Profit, bf.Profit)
				}
			}
		}

		randItems := func() []Item {
			k := rng.IntN(6) + 1
			items := make([]Item, k)
			for j := range items {
				items[j] = Item{Weight: rng.Uniform(0, 0.8), Profit: rng.Uniform(0, 10)}
			}
			return items
		}
		for step := 0; step < churn; step++ {
			cur := warm.Len()
			switch op := rng.IntN(5); {
			case op == 0 && cur > 0:
				if err := update(warm, rng.IntN(cur), randItems()); err != nil {
					t.Fatalf("step %d update: %v", step, err)
				}
			case op == 1 && cur > 0:
				if err := warm.Swap(rng.IntN(cur), Class{Items: randItems()}); err != nil {
					t.Fatalf("step %d swap: %v", step, err)
				}
			case op == 2 || cur == 0:
				if err := warm.Append(Class{Items: randItems()}); err != nil {
					t.Fatalf("step %d append: %v", step, err)
				}
			case op == 3:
				if err := warm.Insert(rng.IntN(cur+1), Class{Items: randItems()}); err != nil {
					t.Fatalf("step %d insert: %v", step, err)
				}
			case cur > 1:
				if err := warm.Remove(rng.IntN(cur)); err != nil {
					t.Fatalf("step %d remove: %v", step, err)
				}
			}
			cold, err := NewSolverFrom(warm.Instance())
			if err != nil {
				t.Fatalf("step %d cold build: %v", step, err)
			}
			sw, errW := warm.Solve()
			sc, errC := cold.Solve()
			if (errW != nil) != (errC != nil) {
				t.Fatalf("step %d: warm err %v, cold err %v", step, errW, errC)
			}
			if errW != nil {
				continue
			}
			if len(sw.Choice) != len(sc.Choice) {
				t.Fatalf("step %d: choice lengths %d vs %d", step, len(sw.Choice), len(sc.Choice))
			}
			for i := range sw.Choice {
				if sw.Choice[i] != sc.Choice[i] {
					t.Fatalf("step %d: choice[%d] warm %d vs cold %d", step, i, sw.Choice[i], sc.Choice[i])
				}
			}
			if math.Float64bits(sw.Profit) != math.Float64bits(sc.Profit) || math.Float64bits(sw.Weight) != math.Float64bits(sc.Weight) {
				t.Fatalf("step %d: warm (%.17g, %.17g) vs cold (%.17g, %.17g)", step, sw.Profit, sw.Weight, sc.Profit, sc.Weight)
			}
		}
	})
}
