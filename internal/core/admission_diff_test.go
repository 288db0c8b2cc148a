package core

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// randomAdmissionTask draws one valid offloadable task for churn
// tests, or nil when the generator rounds itself invalid.
func randomAdmissionTask(rng *stats.RNG, id int) *task.Task {
	period := rtime.FromMillis(rng.UniformInt(20, 800))
	deadline := period
	if rng.Bool(0.25) {
		deadline = period/2 + rtime.Duration(rng.Int64N(int64(period/2)))
	}
	c := rtime.Duration(rng.Int64N(int64(deadline/3))) + 1
	tk := &task.Task{
		ID: id, Period: period, Deadline: deadline,
		LocalWCET: c, Setup: c/4 + 1, Compensation: c,
		PostProcess:  c / 4,
		LocalBenefit: rng.Uniform(0, 3),
		Weight:       rng.Uniform(0.5, 3),
	}
	nlv := rng.IntN(3) + 1
	prevR, prevB := rtime.Duration(0), tk.LocalBenefit
	for j := 0; j < nlv; j++ {
		r := prevR + rtime.Duration(rng.Int64N(int64(deadline)))/rtime.Duration(nlv+1) + 1
		b := prevB + rng.Uniform(0.1, 2)
		tk.Levels = append(tk.Levels, task.Level{Response: r, Benefit: b})
		prevR, prevB = r, b
	}
	if tk.Validate() != nil {
		return nil
	}
	return tk
}

// requireSameDecision asserts bit-identity between the incremental
// admission decision and the from-scratch Decide reference: same
// choices, bitwise-equal float objective, Cmp-equal exact total, same
// repair count and verification flag.
func requireSameDecision(t *testing.T, got, want *Decision, ctx string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil decision (got %v, want %v)", ctx, got, want)
	}
	if len(got.Choices) != len(want.Choices) {
		t.Fatalf("%s: %d choices, reference has %d", ctx, len(got.Choices), len(want.Choices))
	}
	for i := range got.Choices {
		g, w := got.Choices[i], want.Choices[i]
		if g.Task.ID != w.Task.ID || g.Offload != w.Offload || g.Level != w.Level || g.Expected != w.Expected {
			t.Fatalf("%s: choice %d differs: got {id=%d off=%v lv=%d exp=%x} want {id=%d off=%v lv=%d exp=%x}",
				ctx, i, g.Task.ID, g.Offload, g.Level, g.Expected, w.Task.ID, w.Offload, w.Level, w.Expected)
		}
	}
	if got.TotalExpected != want.TotalExpected {
		t.Fatalf("%s: TotalExpected %x vs reference %x", ctx, got.TotalExpected, want.TotalExpected)
	}
	if got.Theorem3Total.Cmp(want.Theorem3Total) != 0 {
		t.Fatalf("%s: Theorem3Total %v vs reference %v", ctx, got.Theorem3Total, want.Theorem3Total)
	}
	if got.Repaired != want.Repaired || got.ExactVerified != want.ExactVerified || got.Solver != want.Solver {
		t.Fatalf("%s: metadata differs: got {rep=%d exact=%v solver=%v} want {rep=%d exact=%v solver=%v}",
			ctx, got.Repaired, got.ExactVerified, got.Solver, want.Repaired, want.ExactVerified, want.Solver)
	}
}

// fracRat converts an exact weight to the big.Rat the references use.
func fracRat(f dbf.Frac) *big.Rat { return big.NewRat(f.Num, f.Den) }

// requireCachedWeights asserts that every committed task cache still
// holds its task's exact Theorem-3 weights, the zero Frac exactly
// where the matching demand is nil, and that the MCKP items carry
// their float64 roundings bit for bit.
func requireCachedWeights(t *testing.T, a *Admission, ctx string) {
	t.Helper()
	for i, tk := range a.tasks {
		c := a.caches[i]
		if (c.localW.Den == 0) != (c.local == nil) || (c.local != nil && fracRat(c.localW).Cmp(tk.Density()) != 0) {
			t.Fatalf("%s: task %d local weight %v, want %v (demand %v)", ctx, tk.ID, c.localW, tk.Density(), c.local)
		}
		if len(c.levelW) != len(tk.Levels) {
			t.Fatalf("%s: task %d caches %d level weights for %d levels", ctx, tk.ID, len(c.levelW), len(tk.Levels))
		}
		for k, cm := range c.cm {
			lv := -1
			if cm.offload {
				lv = cm.level
			}
			want, _ := fracRat(c.weight(lv)).Float64()
			if got := c.class.Items[k].Weight; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: task %d item %d weight %x, exact weight rounds to %x", ctx, tk.ID, k, got, want)
			}
		}
		for j, w := range c.levelW {
			if (w.Den == 0) != (c.levels[j] == nil) {
				t.Fatalf("%s: task %d level %d weight %v with demand %v", ctx, tk.ID, j, w, c.levels[j])
			}
			if w.Den == 0 {
				continue
			}
			if want, err := tk.OffloadWeight(j); err != nil || fracRat(w).Cmp(want) != 0 {
				t.Fatalf("%s: task %d level %d weight %v, want %v (%v)", ctx, tk.ID, j, w, want, err)
			}
		}
	}
}

// runAdmissionChurnDifferential drives one random add/update/remove
// sequence through an Admission, checking after every committed
// operation that the incremental decision is bit-identical to a full
// Decide rebuild of the same set, after every rejected operation that
// the state was left untouched, and after every operation that the
// committed caches hold their tasks' exact weights.
func runAdmissionChurnDifferential(t *testing.T, opts Options, seed uint64, ops int) {
	t.Helper()
	rng := stats.NewRNG(stats.DeriveSeed(seed, 11))
	a := NewAdmission(opts)
	nextID := 0
	for op := 0; op < ops; op++ {
		requireCachedWeights(t, a, fmt.Sprintf("seed %d after op %d", seed, op-1))
		before := a.Decision()
		nBefore := a.Len()
		switch {
		case a.Len() == 0 || rng.Bool(0.45):
			tk := randomAdmissionTask(rng, nextID)
			nextID++
			if tk == nil {
				continue
			}
			if err := a.Add(tk); err != nil {
				if a.Decision() != before || a.Len() != nBefore {
					t.Fatalf("seed %d op %d: rejected Add mutated state", seed, op)
				}
				continue
			}
		case rng.Bool(0.4):
			ts := a.Tasks()
			tk := randomAdmissionTask(rng, ts[rng.IntN(len(ts))].ID)
			if tk == nil {
				continue
			}
			if err := a.Update(tk); err != nil {
				if a.Decision() != before || a.Len() != nBefore {
					t.Fatalf("seed %d op %d: rejected Update mutated state", seed, op)
				}
				continue
			}
		default:
			ts := a.Tasks()
			ok, err := a.Remove(ts[rng.IntN(len(ts))].ID)
			if err != nil || !ok {
				t.Fatalf("seed %d op %d: Remove: %v %v", seed, op, ok, err)
			}
		}
		if a.Len() == 0 {
			if a.Decision() != nil {
				t.Fatalf("seed %d op %d: decision survives empty set", seed, op)
			}
			continue
		}
		ref, err := Decide(a.Tasks(), opts)
		if err != nil {
			t.Fatalf("seed %d op %d: reference Decide on committed set failed: %v", seed, op, err)
		}
		requireSameDecision(t, a.Decision(), ref, "churn")
	}
	requireCachedWeights(t, a, fmt.Sprintf("seed %d after op %d", seed, ops-1))
}

// TestAdmissionMatchesRebuild is the differential contract of the
// incremental admission path: across solvers, with and without the
// exact upgrade, every committed decision is bit-identical to what a
// from-scratch Decide would produce for the same task set.
func TestAdmissionMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"dp", Options{Solver: SolverDP}},
		{"heu", Options{Solver: SolverHEU}},
		{"bnb", Options{Solver: SolverBnB}},
		{"core", Options{Solver: SolverCore}},
		{"greedy", Options{Solver: SolverGreedy}},
		{"brute", Options{Solver: SolverBrute}},
		{"heu-exact", Options{Solver: SolverHEU, ExactUpgrade: true}},
		{"bnb-exact", Options{Solver: SolverBnB, ExactUpgrade: true}},
		{"core-exact", Options{Solver: SolverCore, ExactUpgrade: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				runAdmissionChurnDifferential(t, tc.opts, seed, 40)
			}
		})
	}
}

// TestAdmissionCoreLongChurn is a longer serial replay on the solvers
// that run over the persistent mckp.Solver, so the cached frontiers and
// the upgrade pool survive hundreds of structural deltas while staying
// bit-identical to rebuild-plus-cold-solve. Rejected operations along
// the way exercise the solver rollback path for every delta kind.
func TestAdmissionCoreLongChurn(t *testing.T) {
	ops := 250
	if testing.Short() {
		ops = 60
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"core", Options{Solver: SolverCore}},
		{"core-exact", Options{Solver: SolverCore, ExactUpgrade: true}},
		{"dp", Options{Solver: SolverDP}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runAdmissionChurnDifferential(t, tc.opts, 7, ops)
		})
	}
}

// TestAdmissionChurnParallelRaceClean churns several independent
// admissions concurrently (each its own goroutine, seed, and solver
// state). Admission itself is not concurrency-safe, but distinct
// instances must share nothing — under -race this catches any hidden
// package-level state in the persistent solver's arenas or caches.
func TestAdmissionChurnParallelRaceClean(t *testing.T) {
	opts := []Options{
		{Solver: SolverCore},
		{Solver: SolverCore, ExactUpgrade: true},
		{Solver: SolverDP},
		{Solver: SolverHEU, ExactUpgrade: true},
	}
	done := make(chan struct{})
	for i, o := range opts {
		go func(i int, o Options) {
			defer func() { done <- struct{}{} }()
			runAdmissionChurnDifferential(t, o, 20+uint64(i), 30)
		}(i, o)
	}
	for range opts {
		<-done
	}
}

// TestAdmissionCoreRollback pins the persistent-solver rollback on the
// grow and replace deltas: a rejected Add or Update must leave the warm
// solver mirroring the committed classes, so the next committed
// decision is still bit-identical to a from-scratch Decide.
func TestAdmissionCoreRollback(t *testing.T) {
	opts := Options{Solver: SolverCore}
	a := NewAdmission(opts)
	if err := a.Add(heavyLocalTask(1, ms(60), ms(100))); err != nil {
		t.Fatal(err)
	}
	// Growing by a second 60%-utilization local-only task overloads the
	// processor: rejected, exercising the opGrow rollback.
	if err := a.Add(heavyLocalTask(2, ms(60), ms(100))); err == nil {
		t.Skip("expected overload admission unexpectedly succeeded")
	}
	if err := a.Add(heavyLocalTask(3, ms(10), ms(100))); err != nil {
		t.Fatalf("light admission after rejection: %v", err)
	}
	ref, err := Decide(a.Tasks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDecision(t, a.Decision(), ref, "after opGrow rollback")
	// An overloading Update is rejected, exercising the opSame rollback.
	if err := a.Update(heavyLocalTask(3, ms(60), ms(100))); err == nil {
		t.Skip("expected overload update unexpectedly succeeded")
	}
	if err := a.Update(heavyLocalTask(3, ms(20), ms(100))); err != nil {
		t.Fatalf("light update after rejection: %v", err)
	}
	ref, err = Decide(a.Tasks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDecision(t, a.Decision(), ref, "after opSame rollback")
}

// TestAdmissionRemoveAtomic forces a re-decision failure during Remove
// (via an unknown solver, white-box) and asserts the documented
// invariant: the removal is rejected, the task stays admitted, and the
// previous decision remains current.
func TestAdmissionRemoveAtomic(t *testing.T) {
	a := NewAdmission(Options{Solver: SolverDP})
	set := twoTaskSet()
	if err := a.Add(set[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(set[1]); err != nil {
		t.Fatal(err)
	}
	before := a.Decision()
	a.opts.Solver = Solver(99) // make the next re-decision fail
	ok, err := a.Remove(set[0].ID)
	if err == nil || ok {
		t.Fatalf("Remove with failing re-decision: ok=%v err=%v", ok, err)
	}
	if a.Len() != 2 || a.Decision() != before {
		t.Fatal("failed Remove mutated state")
	}
	a.opts.Solver = SolverDP
	if ok, err := a.Remove(set[0].ID); err != nil || !ok {
		t.Fatalf("Remove after restoring solver: ok=%v err=%v", ok, err)
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d after successful Remove", a.Len())
	}
}

// TestAdmissionUpdate covers the Update contract: in-place level
// changes re-decide, unknown IDs and invalid or overloading updates
// are rejected without mutating state.
func TestAdmissionUpdate(t *testing.T) {
	a := NewAdmission(Options{Solver: SolverDP})
	tk := &task.Task{
		ID: 1, Period: ms(100), Deadline: ms(100),
		LocalWCET: ms(10), Setup: ms(5), Compensation: ms(10),
		LocalBenefit: 1,
		Levels:       []task.Level{{Response: ms(20), Benefit: 2}},
	}
	if err := a.Add(tk); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(nil); err == nil {
		t.Fatal("nil update accepted")
	}
	if err := a.Update(heavyLocalTask(9, ms(1), ms(100))); err == nil {
		t.Fatal("update of unknown ID accepted")
	}
	before := a.Decision()
	// Overloading update: 2× the deadline cannot be scheduled.
	if err := a.Update(heavyLocalTask(1, ms(99), ms(100))); err != nil {
		t.Fatalf("valid heavy update rejected: %v", err)
	}
	if a.Decision() == before || a.Decision().Choices[0].Offload {
		t.Fatal("update did not re-decide")
	}
	// Now an update that makes the set infeasible must roll back.
	bad := heavyLocalTask(1, ms(100), ms(100))
	if err := a.Add(heavyLocalTask(2, ms(1), ms(100))); err != nil {
		t.Fatal(err)
	}
	grown := a.Decision()
	if err := a.Update(bad); err == nil {
		// 100% + co-runner cannot fit; if it somehow does, skip.
		t.Skip("expected infeasible update was admitted")
	}
	if a.Len() != 2 || a.Decision() != grown {
		t.Fatal("rejected update mutated state")
	}
	if got := a.Tasks().ByID(1).LocalWCET; got != ms(99) {
		t.Fatalf("task 1 WCET %v after rejected update, want %v", got, ms(99))
	}
}

// TestAdmissionIgnoresCallerMutation pins the aliasing argument behind
// Update and Remove copying only the task slice: the Admission keeps
// private copies, so a caller that scribbles over every task it passed
// to Add or Update — WCETs, benefits, weights and each level's Response
// — changes no later decision. Two Admissions take the same churn, one
// from pristine inputs; the other's inputs are mutated right after
// each call, and every decision must stay bit-identical, on one server
// and on a fleet.
func TestAdmissionIgnoresCallerMutation(t *testing.T) {
	scribble := func(tk *task.Task) {
		tk.LocalWCET, tk.Setup, tk.Compensation = tk.Deadline, 1, tk.Deadline
		tk.LocalBenefit, tk.Weight = 1e9, 1e9
		for j := range tk.Levels {
			tk.Levels[j].Response = tk.Deadline
			tk.Levels[j].Benefit = -1
		}
	}
	for _, opts := range []Options{
		{Solver: SolverCore, ExactUpgrade: true},
		{Solver: SolverCore, ExactUpgrade: true, Fleet: churnFleet()},
	} {
		stream := edgeChurn(t, opts, stats.DeriveSeed(5, 0x1a46e), 150)
		clean, dirty := NewAdmission(opts), NewAdmission(opts)
		for n, op := range stream {
			var errC, errD error
			switch op.kind {
			case 0, 1:
				in := task.Set{op.task}.Clone()[0]
				if op.kind == 0 {
					errC, errD = clean.Add(op.task), dirty.Add(in)
				} else {
					errC, errD = clean.Update(op.task), dirty.Update(in)
				}
				scribble(in)
			default:
				_, errC = clean.Remove(op.id)
				_, errD = dirty.Remove(op.id)
			}
			ctx := fmt.Sprintf("fleet=%v op %d kind %d", !opts.Fleet.Empty(), n, op.kind)
			if (errC == nil) != (errD == nil) {
				t.Fatalf("%s: outcomes differ: %v vs %v", ctx, errC, errD)
			}
			if clean.Decision() == nil || dirty.Decision() == nil {
				if clean.Decision() != dirty.Decision() {
					t.Fatalf("%s: one decision is nil", ctx)
				}
				continue
			}
			requireSameFleetDecision(t, dirty.Decision(), clean.Decision(), ctx)
		}
	}
}
