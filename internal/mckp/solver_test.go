package mckp

import (
	"errors"
	"math"
	"testing"

	"rtoffload/internal/stats"
)

// requireSameSolution asserts bit-identical solutions (choice vector,
// profit, and weight down to the float bits).
func requireSameSolution(t *testing.T, ctx string, a, b Solution) {
	t.Helper()
	if len(a.Choice) != len(b.Choice) {
		t.Fatalf("%s: choice length %d vs %d", ctx, len(a.Choice), len(b.Choice))
	}
	for i := range a.Choice {
		if a.Choice[i] != b.Choice[i] {
			t.Fatalf("%s: choice[%d] = %d vs %d", ctx, i, a.Choice[i], b.Choice[i])
		}
	}
	if math.Float64bits(a.Profit) != math.Float64bits(b.Profit) {
		t.Fatalf("%s: profit %.17g vs %.17g", ctx, a.Profit, b.Profit)
	}
	if math.Float64bits(a.Weight) != math.Float64bits(b.Weight) {
		t.Fatalf("%s: weight %.17g vs %.17g", ctx, a.Weight, b.Weight)
	}
}

func TestSolverMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(401, 1))
	for trial := 0; trial < 400; trial++ {
		in := randInstance(rng, 5, 6)
		s, err := NewSolverFrom(in)
		if err != nil {
			t.Fatalf("trial %d: NewSolverFrom: %v", trial, err)
		}
		got, errGot := s.Solve()
		want, errWant := SolveBruteForce(in)
		if (errGot != nil) != (errWant != nil) {
			t.Fatalf("trial %d: feasibility disagreement: solver err %v, brute err %v", trial, errGot, errWant)
		}
		if errGot != nil {
			if !errors.Is(errGot, ErrInfeasible) {
				t.Fatalf("trial %d: unexpected error %v", trial, errGot)
			}
			continue
		}
		if math.Abs(got.Profit-want.Profit) > 1e-9 {
			t.Fatalf("trial %d: profit %.12f, brute force %.12f", trial, got.Profit, want.Profit)
		}
		if !got.FitsCapacity(in) {
			t.Fatalf("trial %d: solution weight %f over capacity %f", trial, got.Weight, in.Capacity)
		}
	}
}

func TestSolverMatchesBnB(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(401, 2))
	for trial := 0; trial < 200; trial++ {
		in := randInstance(rng, 12, 8)
		s, err := NewSolverFrom(in)
		if err != nil {
			t.Fatalf("trial %d: NewSolverFrom: %v", trial, err)
		}
		got, errGot := s.Solve()
		want, errWant := SolveBnB(in)
		if (errGot != nil) != (errWant != nil) {
			t.Fatalf("trial %d: feasibility disagreement: solver err %v, bnb err %v", trial, errGot, errWant)
		}
		if errGot != nil {
			continue
		}
		if math.Abs(got.Profit-want.Profit) > 1e-9 {
			t.Fatalf("trial %d: profit %.12f, bnb %.12f", trial, got.Profit, want.Profit)
		}
	}
}

func TestSolverSandwichedByHEUAndLP(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(401, 3))
	for trial := 0; trial < 200; trial++ {
		in := randInstance(rng, 10, 8)
		s, err := NewSolverFrom(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, errGot := s.Solve()
		if errGot != nil {
			continue
		}
		heu, err := SolveHEU(in)
		if err != nil {
			t.Fatalf("trial %d: HEU err %v after solver succeeded", trial, err)
		}
		ub, err := UpperBoundLP(in)
		if err != nil {
			t.Fatalf("trial %d: LP err %v", trial, err)
		}
		if got.Profit < heu.Profit-1e-9 {
			t.Fatalf("trial %d: solver %.12f below HEU %.12f", trial, got.Profit, heu.Profit)
		}
		if got.Profit > ub+1e-9 {
			t.Fatalf("trial %d: solver %.12f above LP bound %.12f", trial, got.Profit, ub)
		}
	}
}

// TestSolverSingleClassPicksBestFitting is the LP-dominated-optimum
// case SolveHEU is documented to miss (see
// TestSingleClassPicksBestFitting): the exact solver must take the
// interior point.
func TestSolverSingleClassPicksBestFitting(t *testing.T) {
	in := inst(1, [][2]float64{{0.2, 1}, {0.8, 3}, {0.9, 3.05}, {1.5, 10}})
	s, err := NewSolverFrom(in)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Choice[0] != 2 {
		t.Fatalf("chose item %d, want 2 (the best fitting)", sol.Choice[0])
	}
}

// churnSolver applies a random structural edit to s and returns a
// description of the op.
func churnSolver(t *testing.T, rng *stats.RNG, s *Solver) string {
	t.Helper()
	randItems := func() []Item {
		m := rng.IntN(6) + 1
		items := make([]Item, m)
		for j := range items {
			items[j] = Item{Weight: rng.Uniform(0, 0.8), Profit: rng.Uniform(0, 10)}
		}
		return items
	}
	n := s.Len()
	op := rng.IntN(5)
	if n == 0 {
		op = 2 // must grow
	}
	switch op {
	case 0:
		i := rng.IntN(n)
		if err := s.Update(i, randItems()); err != nil {
			t.Fatalf("update: %v", err)
		}
		return "update"
	case 1:
		i := rng.IntN(n)
		if err := s.Swap(i, Class{Label: "swapped", Items: randItems()}); err != nil {
			t.Fatalf("swap: %v", err)
		}
		return "swap"
	case 2:
		if err := s.Append(Class{Label: "appended", Items: randItems()}); err != nil {
			t.Fatalf("append: %v", err)
		}
		return "append"
	case 3:
		i := rng.IntN(n + 1)
		if err := s.Insert(i, Class{Label: "inserted", Items: randItems()}); err != nil {
			t.Fatalf("insert: %v", err)
		}
		return "insert"
	default:
		if n == 1 {
			return "skip-remove"
		}
		if err := s.Remove(rng.IntN(n)); err != nil {
			t.Fatalf("remove: %v", err)
		}
		return "remove"
	}
}

// TestSolverIncrementalBitIdentical drives a warm solver through a
// churn stream and checks after every op that its solution is
// bit-identical to a cold from-scratch solver on the same instance —
// the core incremental-correctness contract.
func TestSolverIncrementalBitIdentical(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(401, 4))
	for round := 0; round < 12; round++ {
		in := randInstance(rng, 8, 6)
		warm, err := NewSolverFrom(in)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			op := churnSolver(t, rng, warm)
			cold, err := NewSolverFrom(warm.Instance())
			if err != nil {
				t.Fatalf("round %d step %d (%s): cold build: %v", round, step, op, err)
			}
			sw, errW := warm.Solve()
			sc, errC := cold.Solve()
			if (errW != nil) != (errC != nil) {
				t.Fatalf("round %d step %d (%s): warm err %v, cold err %v", round, step, op, errW, errC)
			}
			if errW != nil {
				continue
			}
			requireSameSolution(t, op, sw, sc)
		}
	}
}

func TestSolverDeterminism(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(401, 5))
	in := randInstance(rng, 10, 8)
	s, err := NewSolverFrom(in)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Solve()
	if err != nil {
		t.Skip("infeasible draw")
	}
	firstChoice := append([]int(nil), first.Choice...)
	for i := 0; i < 5; i++ {
		again, err := s.Solve()
		if err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
		requireSameSolution(t, "resolve", Solution{Choice: firstChoice, Profit: first.Profit, Weight: first.Weight}, again)
	}
}

func TestSolverStructuralOpsMatchView(t *testing.T) {
	s, err := NewSolver(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Capacity() != 1 {
		t.Fatalf("empty solver: Len %d Capacity %f", s.Len(), s.Capacity())
	}
	if _, err := s.Solve(); err == nil {
		t.Fatal("Solve on empty solver should fail")
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Append(Class{Label: "a", Items: []Item{{0.3, 1}}}))
	must(s.Append(Class{Label: "b", Items: []Item{{0.2, 2}, {0.4, 3}}}))
	must(s.Insert(1, Class{Label: "c", Items: []Item{{0.1, 5}}}))
	if got := s.Instance().Classes[1].Label; got != "c" {
		t.Fatalf("after insert, class 1 label %q, want c", got)
	}
	must(s.Update(0, []Item{{0.25, 1.5}}))
	if got := s.Instance().Classes[0].Label; got != "a" {
		t.Fatalf("Update must keep label, got %q", got)
	}
	must(s.Swap(2, Class{Label: "d", Items: []Item{{0.2, 2}}}))
	if got := s.Instance().Classes[2].Label; got != "d" {
		t.Fatalf("after swap, class 2 label %q, want d", got)
	}
	must(s.Remove(1))
	if s.Len() != 2 {
		t.Fatalf("after remove, Len %d, want 2", s.Len())
	}
	if err := s.Instance().Validate(); err != nil {
		t.Fatalf("view invalid: %v", err)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("after Reset, Len %d", s.Len())
	}
}

func TestSolverErrors(t *testing.T) {
	if _, err := NewSolver(0); err == nil {
		t.Fatal("NewSolver(0) should fail")
	}
	if _, err := NewSolver(math.NaN()); err == nil {
		t.Fatal("NewSolver(NaN) should fail")
	}
	if _, err := NewSolverFrom(&Instance{Capacity: 1}); err == nil {
		t.Fatal("NewSolverFrom with no classes should fail")
	}
	s, err := NewSolver(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Class{}); err == nil {
		t.Fatal("Append of empty class should fail")
	}
	if err := s.Append(Class{Items: []Item{{Weight: -1, Profit: 0}}}); err == nil {
		t.Fatal("Append with negative weight should fail")
	}
	if err := s.Append(Class{Items: []Item{{Weight: 0, Profit: math.NaN()}}}); err == nil {
		t.Fatal("Append with NaN profit should fail")
	}
	if err := s.Remove(0); err == nil {
		t.Fatal("Remove out of range should fail")
	}
	if err := s.Update(0, []Item{{0.1, 1}}); err == nil {
		t.Fatal("Update out of range should fail")
	}
	if err := s.Swap(-1, Class{Items: []Item{{0.1, 1}}}); err == nil {
		t.Fatal("Swap out of range should fail")
	}
	if err := s.Insert(5, Class{Items: []Item{{0.1, 1}}}); err == nil {
		t.Fatal("Insert out of range should fail")
	}
	// Infeasible: lightest items exceed the capacity.
	if err := s.Append(Class{Items: []Item{{0.9, 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Class{Items: []Item{{0.9, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if _, err := s.SolveHEU(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("SolveHEU: want ErrInfeasible, got %v", err)
	}
	// A later edit must clear the infeasibility.
	if err := s.Update(0, []Item{{0.05, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

// textbookHEU is the HEU-OE oracle written straight from its
// definition: at every step scan the open classes for the best next
// frontier upgrade (eff desc, class asc), apply it when it fits and
// otherwise close its class.
func textbookHEU(in *Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	n := len(in.Classes)
	fronts := make([][]frontierItem, n)
	pos := make([]int, n)
	open := make([]bool, n)
	weight := 0.0
	for i, c := range in.Classes {
		fronts[i] = lpFrontierInto(nil, ipFrontierInto(nil, c.Items))
		weight += fronts[i][0].weight
		open[i] = true
	}
	if weight > in.Capacity+1e-12 {
		return Solution{}, ErrInfeasible
	}
	for {
		best, bestEff, bestDW := -1, 0.0, 0.0
		for i, f := range fronts {
			if !open[i] || pos[i]+1 >= len(f) {
				continue
			}
			a, b := f[pos[i]], f[pos[i]+1]
			dw := b.weight - a.weight
			if eff := (b.profit - a.profit) / dw; best < 0 || eff > bestEff {
				best, bestEff, bestDW = i, eff, dw
			}
		}
		if best < 0 {
			break
		}
		if weight+bestDW > in.Capacity+1e-12 {
			open[best] = false
			continue
		}
		pos[best]++
		weight += bestDW
	}
	choice := make([]int, n)
	for i, f := range fronts {
		choice[i] = f[pos[i]].idx
	}
	return in.Evaluate(choice)
}

// coarseInstance draws integer profits and weights in 1/16 steps, so
// efficiencies tie across and within classes.
func coarseInstance(rng *stats.RNG, maxClasses, maxItems int) *Instance {
	n := rng.IntN(maxClasses) + 1
	in := &Instance{Capacity: float64(rng.IntN(6*n)+1) / 16}
	for i := 0; i < n; i++ {
		c := Class{}
		for j := rng.IntN(maxItems) + 1; j > 0; j-- {
			c.Items = append(c.Items, Item{
				Weight: float64(rng.IntN(13)) / 16,
				Profit: float64(rng.IntN(8)),
			})
		}
		in.Classes = append(in.Classes, c)
	}
	return in
}

// TestSolverHEUMatchesTextbook checks the pool-scan HEU against
// textbookHEU bit for bit, on random and on tie-heavy coarse
// instances: cold through package SolveHEU, and warm on a solver whose
// pool a Solve built and an Update then merged.
func TestSolverHEUMatchesTextbook(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(401, 6))
	for trial := 0; trial < 400; trial++ {
		in := randInstance(rng, 10, 8)
		if trial%2 == 1 {
			in = coarseInstance(rng, 10, 8)
		}
		want, errWant := textbookHEU(in)
		got, errGot := SolveHEU(in)
		if (errGot != nil) != (errWant != nil) {
			t.Fatalf("trial %d: err %v vs textbook %v", trial, errGot, errWant)
		}
		if errGot != nil {
			continue
		}
		requireSameSolution(t, "heu", got, want)
		s, err := NewSolverFrom(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if err := s.Update(0, in.Classes[len(in.Classes)-1].Items); err != nil {
			t.Fatal(err)
		}
		want, errWant = textbookHEU(s.Instance())
		warm, errWarm := s.SolveHEU()
		if (errWarm != nil) != (errWant != nil) {
			t.Fatalf("trial %d: warm err %v vs textbook %v", trial, errWarm, errWant)
		}
		if errWarm == nil {
			requireSameSolution(t, "heu-warm", warm, want)
		}
	}
}

func TestSolverDPMatchesSolveDP(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(401, 7))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 6, 5)
		s, err := NewSolverFrom(in)
		if err != nil {
			t.Fatal(err)
		}
		got, errGot := s.SolveDP(500)
		want, errWant := SolveDP(in, 500)
		if (errGot != nil) != (errWant != nil) {
			t.Fatalf("trial %d: err %v vs %v", trial, errGot, errWant)
		}
		if errGot != nil {
			continue
		}
		requireSameSolution(t, "dp", got, want)
		// Second solve out of the same arena must agree too.
		again, err := s.SolveDP(500)
		if err != nil {
			t.Fatalf("trial %d: re-solve: %v", trial, err)
		}
		requireSameSolution(t, "dp-arena-reuse", again, want)
	}
}

// TestSolverWarmResolveZeroAllocs is the steady-state allocation
// contract from the acceptance criteria: once warmed up, an
// Update+Solve cycle must not allocate.
func TestSolverWarmResolveZeroAllocs(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(401, 8))
	const n = 40
	in := &Instance{Capacity: 1}
	for i := 0; i < n; i++ {
		c := Class{}
		for j := 0; j < 8; j++ {
			c.Items = append(c.Items, Item{Weight: rng.Uniform(0, 1.8) / n, Profit: rng.Uniform(0, 10)})
		}
		in.Classes = append(in.Classes, c)
	}
	s, err := NewSolverFrom(in)
	if err != nil {
		t.Fatal(err)
	}
	// Alternative item sets to rotate through, preallocated.
	alts := make([][]Item, 16)
	for a := range alts {
		items := make([]Item, 8)
		for j := range items {
			items[j] = Item{Weight: rng.Uniform(0, 1.8) / n, Profit: rng.Uniform(0, 10)}
		}
		alts[a] = items
	}
	step := 0
	cycle := func() {
		i := step % n
		if err := s.Update(i, alts[step%len(alts)]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		step++
	}
	// Warm every rotation position so all arenas reach steady size.
	for i := 0; i < 2*n; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("warm Update+Solve allocates %.2f allocs/op, want 0", avg)
	}
}

// TestSolveBnBCappedFallsBackToDP forces the node cap with no
// improvement over the HEU seed and checks the DP fallback engages
// (the uncapped solver no longer runs DP unconditionally).
func TestSolveBnBCappedFallsBackToDP(t *testing.T) {
	// HEU misses the interior optimum here (see
	// TestSingleClassPicksBestFitting); DP finds it.
	in := inst(1, [][2]float64{{0.2, 1}, {0.8, 3}, {0.9, 3.05}, {1.5, 10}})
	capped, err := solveBnBNodeCap(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	heu, err := SolveHEU(in)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Profit <= heu.Profit {
		t.Fatalf("capped BnB %.6f did not improve on HEU %.6f via DP fallback", capped.Profit, heu.Profit)
	}
	full, err := SolveBnB(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Profit-capped.Profit) > 1e-9 {
		t.Fatalf("capped+fallback %.6f differs from uncapped %.6f", capped.Profit, full.Profit)
	}
}

// TestSolverRemoveToEmptyAndRegrow exercises Reset-like shrink paths.
func TestSolverRemoveToEmptyAndRegrow(t *testing.T) {
	s, err := NewSolver(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Class{Items: []Item{{0.5, 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len %d after remove-to-empty", s.Len())
	}
	if _, err := s.Solve(); err == nil {
		t.Fatal("Solve on emptied solver should fail")
	}
	if err := s.Append(Class{Items: []Item{{0.4, 1}, {0.6, 3}}}); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Choice[0] != 1 {
		t.Fatalf("regrown solve chose %d, want 1", sol.Choice[0])
	}
}
