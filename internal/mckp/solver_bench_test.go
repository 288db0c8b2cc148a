package mckp

import (
	"fmt"
	"math"
	"testing"

	"rtoffload/internal/stats"
)

// fleetWeightSlots is the bandwidth granularity of the benchmark
// fleet: item weights land on a dyadic 1/8192 grid, mirroring the
// paper's discrete offloading levels r_{i,j} (a reserved share of the
// communication medium comes in slots, not arbitrary reals). Dyadic
// weights also keep prefix sums exact, so the solver's dominance
// sweep collapses equal-weight prefixes instead of drowning in
// float-distinct near-ties.
const fleetWeightSlots = 1 << 13

// fleetInstance builds an offloading-shaped MCKP instance: n task
// classes whose local items consume ~60% of the unit capacity in
// total (per-task weight O(1/n)), each with an m-step ladder of
// offloading levels trading extra bandwidth weight for QoC profit.
// The aggregate upgrade demand exceeds the headroom, so the knapsack
// constraint binds and the solver has real work to do.
func fleetInstance(rng *stats.RNG, n, m int) *Instance {
	in := &Instance{Capacity: 1, Classes: make([]Class, n)}
	for i := 0; i < n; i++ {
		w := rng.Uniform(0.2, 1.0) * 0.6 / float64(n)
		p := rng.Uniform(0, 1)
		items := make([]Item, m)
		for j := 0; j < m; j++ {
			items[j] = Item{Weight: math.Ceil(w*fleetWeightSlots) / fleetWeightSlots, Profit: p}
			w += rng.Uniform(0, 2.4) / float64(n*m) // uniform step, O(1/(n·m))
			p += rng.Uniform(0, 2)
		}
		in.Classes[i] = Class{Label: fmt.Sprintf("task-%d", i), Items: items}
	}
	return in
}

var fleetSizes = []struct{ n, m int }{
	{100, 8},
	{1000, 32},
	{5000, 64},
}

// BenchmarkMCKPCoreSolve measures a cold build+solve of the core
// solver at fleet scale (the <100ms @ 5000×64 acceptance headline).
func BenchmarkMCKPCoreSolve(b *testing.B) {
	for _, sz := range fleetSizes {
		b.Run(fmt.Sprintf("n%d_m%d", sz.n, sz.m), func(b *testing.B) {
			in := fleetInstance(stats.NewRNG(stats.DeriveSeed(403, uint64(sz.n))), sz.n, sz.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := NewSolverFrom(in)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMCKPCoreResolve measures the steady-state incremental
// path: one class swapped, then a warm re-solve reusing every arena
// (the ≥5×-faster-than-cold, zero-allocation acceptance criterion).
func BenchmarkMCKPCoreResolve(b *testing.B) {
	for _, sz := range fleetSizes {
		b.Run(fmt.Sprintf("n%d_m%d", sz.n, sz.m), func(b *testing.B) {
			rng := stats.NewRNG(stats.DeriveSeed(403, uint64(sz.n)))
			in := fleetInstance(rng, sz.n, sz.m)
			s, err := NewSolverFrom(in)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-generate replacement ladders so the loop allocates
			// nothing of its own. They come from a second instance of
			// the same shape so their weights are O(1/n)-scaled. The
			// loop oscillates 64 classes between their original and
			// alternate ladders rather than accumulating donor copies:
			// unbounded drift would turn the fleet into duplicated
			// ladders, a degenerate instance that no longer resembles
			// the cold-solve baseline it is compared against.
			const churned = 64
			donor := fleetInstance(rng, churned, sz.m)
			alts := make([][]Item, churned)
			orig := make([][]Item, churned)
			for a := range alts {
				for j := range donor.Classes[a].Items {
					w := donor.Classes[a].Items[j].Weight * churned / float64(sz.n)
					donor.Classes[a].Items[j].Weight = math.Ceil(w*fleetWeightSlots) / fleetWeightSlots
				}
				alts[a] = donor.Classes[a].Items
				orig[a] = append([]Item(nil), in.Classes[a%sz.n].Items...)
			}
			next := func(i int) []Item {
				if (i/churned)%2 == 0 {
					return alts[i%churned]
				}
				return orig[i%churned]
			}
			if _, err := s.Solve(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2*churned; i++ { // warm all arenas
				if err := update(s, i%churned%sz.n, next(i)); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := update(s, i%churned%sz.n, next(i)); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMCKPBaselineBnB is the pre-existing exact solver on the
// same instances (the ≥10× @ 1000×32 comparison baseline). 5000×64 is
// omitted: SolveBnB's O(n²·m) suffix tables alone make it minutes.
func BenchmarkMCKPBaselineBnB(b *testing.B) {
	for _, sz := range fleetSizes[:2] {
		b.Run(fmt.Sprintf("n%d_m%d", sz.n, sz.m), func(b *testing.B) {
			in := fleetInstance(stats.NewRNG(stats.DeriveSeed(403, uint64(sz.n))), sz.n, sz.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveBnB(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMCKPBaselineDP is the quantized DP on the same instances.
func BenchmarkMCKPBaselineDP(b *testing.B) {
	for _, sz := range fleetSizes[:2] {
		b.Run(fmt.Sprintf("n%d_m%d", sz.n, sz.m), func(b *testing.B) {
			in := fleetInstance(stats.NewRNG(stats.DeriveSeed(403, uint64(sz.n))), sz.n, sz.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveDP(in, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFleetInstanceSolvable pins the benchmark generator: feasible,
// binding (LP wants more than capacity), and exactly solvable by the
// core solver at the headline size.
func TestFleetInstanceSolvable(t *testing.T) {
	for _, sz := range fleetSizes {
		in := fleetInstance(stats.NewRNG(stats.DeriveSeed(403, uint64(sz.n))), sz.n, sz.m)
		if !in.Feasible() {
			t.Fatalf("n=%d m=%d: generator produced infeasible instance", sz.n, sz.m)
		}
		s, err := NewSolverFrom(in)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve()
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", sz.n, sz.m, err)
		}
		if !sol.fitsCapacity(in) {
			t.Fatalf("n=%d m=%d: solution over capacity", sz.n, sz.m)
		}
		if sol.Weight < 0.9 {
			t.Fatalf("n=%d m=%d: constraint not binding (weight %.3f)", sz.n, sz.m, sol.Weight)
		}
	}
}
