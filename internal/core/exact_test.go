package core

import (
	"math/big"
	"testing"

	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// largeBudgetTask has levels whose Theorem-3 weights are pessimistic:
// a big budget R relative to D makes (C1+C2)/(D−R) huge while the true
// per-period demand stays small.
func largeBudgetTask(id int) *task.Task {
	ms := rtime.FromMillis
	return &task.Task{
		ID: id, Period: ms(100), Deadline: ms(100),
		LocalWCET: ms(20), Setup: ms(4), Compensation: ms(20),
		LocalBenefit: 1,
		Levels: []task.Level{
			{Response: ms(30), Benefit: 3},  // w = 24/70
			{Response: ms(70), Benefit: 10}, // w = 24/30 = 0.8: Theorem 3 can afford one
		},
	}
}

func TestImproveWithExact(t *testing.T) {
	set := task.Set{largeBudgetTask(1), largeBudgetTask(2)}
	base, err := Decide(set, Options{Solver: SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 3 cannot put both tasks on level 1 (2×0.8 > 1).
	lvl1 := 0
	for _, c := range base.Choices {
		if c.Offload && c.Level == 1 {
			lvl1++
		}
	}
	if lvl1 >= 2 {
		t.Fatalf("Theorem-3 decision already has both at level 1 (total %v)", base.Theorem3Total)
	}
	improved, err := ImproveWithExact(base, set)
	if err != nil {
		t.Fatal(err)
	}
	if !improved.ExactVerified {
		t.Error("ExactVerified not set")
	}
	if improved.TotalExpected <= base.TotalExpected {
		t.Fatalf("no improvement: %g vs %g", improved.TotalExpected, base.TotalExpected)
	}
	// Theorem 3 had to leave the second task local (0.8 + 24/70 > 1);
	// the exact test affords offloading it at level 0. Note it
	// correctly does NOT admit both at level 1: two 20ms compensations
	// can align inside one 25ms window (D−D1−R), which QPA sees and
	// the linear bound cannot express.
	for _, c := range improved.Choices {
		if !c.Offload {
			t.Fatalf("improved choice %+v, want offloaded", c)
		}
	}
	if improved.Theorem3Total.Cmp(big.NewRat(1, 1)) <= 0 {
		t.Errorf("expected Theorem3Total > 1 after exact upgrade, got %v", improved.Theorem3Total)
	}
	if err := VerifyExact(improved); err != nil {
		t.Fatalf("exact verification failed: %v", err)
	}
	// Input untouched.
	if base.ExactVerified {
		t.Error("input decision mutated")
	}

	// The upgraded configuration must still be miss-free under the
	// adversarial server — QPA's guarantee, checked by simulation.
	var tr trace.Trace
	res, err := sched.Run(sched.Config{
		Assignments: improved.Assignments(),
		Server:      server.Fixed{Lost: true},
		Horizon:     rtime.FromSeconds(2),
		TraceSink:   &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("%d misses after exact upgrade", res.Misses)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImproveWithExactNoRoom(t *testing.T) {
	// A saturated system: nothing to upgrade.
	ms := rtime.FromMillis
	set := task.Set{
		{ID: 1, Period: ms(10), Deadline: ms(10), LocalWCET: ms(9), LocalBenefit: 1},
	}
	base, err := Decide(set, Options{Solver: SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := ImproveWithExact(base, set)
	if err != nil {
		t.Fatal(err)
	}
	if improved.TotalExpected != base.TotalExpected {
		t.Fatal("upgrade out of thin air")
	}
	if _, err := ImproveWithExact(nil, set); err == nil {
		t.Error("nil decision accepted")
	}
}

// Property over random sets: the exact upgrade never loses benefit,
// always stays QPA-feasible, and never misses in adversarial
// simulation.
func TestImproveWithExactProperty(t *testing.T) {
	rng := stats.NewRNG(321)
	improvedCount := 0
	for trial := 0; trial < 25; trial++ {
		p := task.DefaultRandomSetParams()
		p.N = 6
		p.TotalUtil = 0.5
		p.RespLoFrac = 0.3
		p.RespHiFrac = 0.8
		set, err := task.GenerateRandomSet(rng.Fork(), p)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Decide(set, Options{Solver: SolverDP})
		if err != nil {
			t.Fatal(err)
		}
		improved, err := ImproveWithExact(base, set)
		if err != nil {
			t.Fatal(err)
		}
		if improved.TotalExpected < base.TotalExpected-1e-9 {
			t.Fatalf("trial %d: upgrade lost benefit", trial)
		}
		if improved.TotalExpected > base.TotalExpected {
			improvedCount++
		}
		if err := VerifyExact(improved); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := sched.Run(sched.Config{
			Assignments: improved.Assignments(),
			Server:      server.Fixed{Lost: true},
			Horizon:     rtime.FromSeconds(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses != 0 {
			t.Fatalf("trial %d: %d misses", trial, res.Misses)
		}
	}
	if improvedCount == 0 {
		t.Error("exact test never improved anything across 25 trials")
	}
}

// Options.ExactUpgrade routes Decide (and through it the online
// Admission manager) through the exact-upgrade pass.
func TestOptionsExactUpgrade(t *testing.T) {
	set := task.Set{largeBudgetTask(1), largeBudgetTask(2)}
	plain, err := Decide(set, Options{Solver: SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	up, err := Decide(set, Options{Solver: SolverDP, ExactUpgrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if !up.ExactVerified {
		t.Error("ExactVerified not set by Decide with ExactUpgrade")
	}
	if up.TotalExpected <= plain.TotalExpected {
		t.Fatalf("no upgrade: %g vs %g", up.TotalExpected, plain.TotalExpected)
	}
	if err := VerifyExact(up); err != nil {
		t.Fatal(err)
	}

	a := NewAdmission(Options{Solver: SolverHEU, ExactUpgrade: true})
	for _, tk := range set {
		if err := a.Add(tk); err != nil {
			t.Fatal(err)
		}
	}
	dec := a.Decision()
	if dec == nil || !dec.ExactVerified {
		t.Fatalf("admission decision %+v not exact-verified", dec)
	}
	if err := VerifyExact(dec); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Remove(1); err != nil {
		t.Fatal(err)
	}
	if dec := a.Decision(); dec == nil || !dec.ExactVerified || VerifyExact(dec) != nil {
		t.Fatalf("post-remove decision %+v lost exact verification", dec)
	}
}

// improveRebuildReference is the pre-Analyzer reference: the same
// greedy best-gain loop, but every candidate is tried by rebuilding
// the full demand vector and running a fresh QPA.
func improveRebuildReference(d *Decision, set task.Set) (*Decision, error) {
	if d == nil {
		return nil, nil
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	out := &Decision{
		Choices:       append([]Choice(nil), d.Choices...),
		TotalExpected: d.TotalExpected,
		Solver:        d.Solver,
		Repaired:      d.Repaired,
		ExactVerified: true,
	}
	feasibleAt := func(i, lv int) bool {
		trial := append([]Choice(nil), out.Choices...)
		trial[i].Offload = true
		trial[i].Level = lv
		ds, err := demandsOf(trial)
		if err != nil {
			return false
		}
		return dbf.QPA(ds) == nil
	}
	for {
		bestIdx, bestLevel := -1, 0
		bestGain := 0.0
		for i, c := range out.Choices {
			tk := c.Task
			from := -1
			cur := tk.EffectiveWeight() * tk.LocalBenefit
			if c.Offload {
				from = c.Level
				cur = tk.EffectiveWeight() * tk.Levels[c.Level].Benefit
			}
			for lv := from + 1; lv < len(tk.Levels); lv++ {
				gain := tk.EffectiveWeight()*tk.Levels[lv].Benefit - cur
				if gain <= bestGain || !feasibleAt(i, lv) {
					continue
				}
				bestIdx, bestLevel, bestGain = i, lv, gain
			}
		}
		if bestIdx < 0 {
			break
		}
		c := &out.Choices[bestIdx]
		old := c.Expected
		c.Offload = true
		c.Level = bestLevel
		c.Expected = c.Task.EffectiveWeight() * c.Task.Levels[bestLevel].Benefit
		out.TotalExpected += c.Expected - old
	}
	total, _ := theorem3Of(out.Choices)
	out.Theorem3Total = total
	return out, nil
}

// TestImproveWithExactMatchesRebuild pins the incremental-Analyzer
// implementation to the rebuild-from-scratch reference: identical
// choices, totals and Theorem-3 scale on random sets across solvers.
func TestImproveWithExactMatchesRebuild(t *testing.T) {
	rng := stats.NewRNG(9090)
	for trial := 0; trial < 30; trial++ {
		p := task.DefaultRandomSetParams()
		p.N = rng.IntN(8) + 2
		p.TotalUtil = rng.Uniform(0.2, 0.85)
		p.RespLoFrac = 0.2
		p.RespHiFrac = 0.9
		set, err := task.GenerateRandomSet(rng.Fork(), p)
		if err != nil {
			t.Fatal(err)
		}
		solver := []Solver{SolverDP, SolverHEU, SolverGreedy}[trial%3]
		base, err := Decide(set, Options{Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ImproveWithExact(base, set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := improveRebuildReference(base, set)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalExpected != want.TotalExpected {
			t.Fatalf("trial %d: TotalExpected %g vs reference %g",
				trial, got.TotalExpected, want.TotalExpected)
		}
		if got.Theorem3Total.Cmp(want.Theorem3Total) != 0 {
			t.Fatalf("trial %d: Theorem3Total %v vs reference %v",
				trial, got.Theorem3Total, want.Theorem3Total)
		}
		for i := range got.Choices {
			g, w := got.Choices[i], want.Choices[i]
			if g.Offload != w.Offload || g.Level != w.Level || g.Expected != w.Expected {
				t.Fatalf("trial %d choice %d: %+v vs reference %+v", trial, i, g, w)
			}
		}
	}
}

func TestDecideServerFaster(t *testing.T) {
	ms := rtime.FromMillis
	mk := func(id int) *task.Task {
		return &task.Task{
			ID: id, Period: ms(100), Deadline: ms(100),
			LocalWCET: ms(30), Setup: ms(5), Compensation: ms(30),
			LocalBenefit: 1,
			Levels: []task.Level{
				{Response: ms(10), Benefit: 4},
				{Response: ms(20), Benefit: 9},  // < C = 30ms → greedy takes it
				{Response: ms(60), Benefit: 20}, // ≥ C → greedy ignores it
			},
		}
	}
	set := task.Set{mk(1), mk(2), mk(3)}
	d, err := DecideServerFaster(set)
	if err != nil {
		t.Fatal(err)
	}
	if d.Solver != SolverServerFaster || d.Solver.String() != "server-faster" {
		t.Errorf("solver label %v", d.Solver)
	}
	for _, c := range d.Choices {
		if !c.Offload || c.Level != 1 {
			t.Fatalf("greedy choice %+v, want level 1 (highest with R < C)", c)
		}
	}
	// Three tasks at (5+30)/(100−20) = 7/16 each: ≈1.31 — over
	// capacity, which the baseline never notices.
	if d.Theorem3Total.Cmp(big.NewRat(1, 1)) <= 0 {
		t.Fatalf("baseline total %v unexpectedly feasible", d.Theorem3Total)
	}
	// And it actually breaks: deadlines are missed when the server
	// stalls — the failure the paper's mechanism exists to prevent.
	res, err := sched.Run(sched.Config{
		Assignments: d.Assignments(),
		Server:      server.Fixed{Lost: true},
		Horizon:     rtime.FromSeconds(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 {
		t.Fatal("uncoordinated baseline missed no deadlines — demonstration void")
	}
	// The paper's decision on the same set stays safe.
	safe, err := Decide(set, Options{Solver: SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sched.Run(sched.Config{
		Assignments: safe.Assignments(),
		Server:      server.Fixed{Lost: true},
		Horizon:     rtime.FromSeconds(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Misses != 0 {
		t.Fatalf("paper's decision missed %d", res2.Misses)
	}
}

func TestDecideServerFasterLocalFallback(t *testing.T) {
	// No level beats local time: everything stays local.
	set := task.Set{{
		ID: 1, Period: rtime.FromMillis(600), Deadline: rtime.FromMillis(600),
		LocalWCET: rtime.FromMillis(10), Setup: rtime.FromMillis(2),
		Compensation: rtime.FromMillis(10), LocalBenefit: 1,
		Levels: []task.Level{{Response: rtime.FromMillis(100), Benefit: 5}},
	}}
	d, err := DecideServerFaster(set)
	if err != nil {
		t.Fatal(err)
	}
	if d.Choices[0].Offload {
		t.Fatal("offloaded despite slower server")
	}
	if _, err := DecideServerFaster(nil); err == nil {
		t.Error("empty set accepted")
	}
}
