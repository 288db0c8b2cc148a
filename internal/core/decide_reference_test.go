package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	"rtoffload/internal/dbf"
	"rtoffload/internal/mckp"
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// This file keeps the original from-scratch single-server decision
// path as a test-only oracle. It shares the MCKP reduction
// (buildTaskCache) and the solvers with the shipped pipeline, but runs
// its own Theorem-3 repair loop (refRepairDecision), evaluates Theorem
// 3 through dbf.Theorem3 and builds the exact upgrade's demands from
// the choices on every call instead of reading the per-task caches
// certify works on, and it runs its own index-order upgrade loop
// (refImproveLoop) instead of the shipped gain-ordered scan. TestDecideMatchesReference holds Decide
// bit-identical to it; without it, the admission differentials would
// only compare two callers of the same certify.

// ratOne is the Theorem-3 capacity bound the references compare with.
var ratOne = big.NewRat(1, 1)

// buildInstance constructs the MCKP instance of §5.2 over the whole
// set (see buildTaskCache for the per-task reduction).
func buildInstance(set task.Set) (*mckp.Instance, [][]classMap, error) {
	in := &mckp.Instance{Capacity: 1}
	maps := make([][]classMap, len(set))
	for i, t := range set {
		tc := buildTaskCache(t)
		in.Classes = append(in.Classes, tc.class)
		maps[i] = tc.cm
	}
	return in, maps, nil
}

// mapCaches wraps item maps in taskCaches for assembleDecision.
func mapCaches(maps [][]classMap) []taskCache {
	cs := make([]taskCache, len(maps))
	for i, cm := range maps {
		cs[i].cm = cm
	}
	return cs
}

// theorem3Of evaluates the exact test for a choice vector, building
// every demand model from scratch.
func theorem3Of(choices []Choice) (*big.Rat, bool) {
	var off []dbf.Offloaded
	var loc []dbf.Sporadic
	for _, c := range choices {
		t := c.Task
		if c.Offload {
			o, err := dbf.NewOffloaded(t.SetupAt(c.Level), t.SecondPhaseAt(c.Level),
				t.Deadline, t.Period, t.Levels[c.Level].Response)
			if err != nil {
				// Excluded in buildInstance; a failure here means the
				// choice is over-dense — report as infeasible.
				return big.NewRat(2, 1), false
			}
			off = append(off, o)
		} else {
			s, err := dbf.NewSporadic(t.LocalWCET, t.Deadline, t.Period)
			if err != nil {
				return big.NewRat(2, 1), false
			}
			loc = append(loc, s)
		}
	}
	return dbf.Theorem3(off, loc)
}

// refRepairDecision is the original Theorem-3 repair loop: it
// re-evaluates the whole choice vector through theorem3 after every
// downgrade of the cheapest-loss offloaded choice.
func refRepairDecision(d *Decision, theorem3 func([]Choice) (*big.Rat, bool)) error {
	for {
		total, ok := theorem3(d.Choices)
		if ok {
			d.Theorem3Total = total
			return nil
		}
		idx := cheapestDowngrade(d.Choices, nil)
		if idx < 0 {
			return ErrInfeasible
		}
		c := &d.Choices[idx]
		d.TotalExpected -= c.Expected
		c.Offload = false
		c.Level = 0
		c.Expected = c.Task.EffectiveWeight() * c.Task.LocalBenefit
		d.TotalExpected += c.Expected
		d.Repaired++
	}
}

// newUpgradeState builds the Analyzer over the decision's current
// demands plus the candidate demand of every (task, level) pair, in
// the per-task layout improveLoop reads. Levels that cannot form a
// valid split model stay nil — they are never feasible.
func newUpgradeState(choices []Choice) (*dbf.Analyzer, []taskCache, error) {
	ds, err := demandsOf(choices)
	if err != nil {
		return nil, nil, err
	}
	az, err := dbf.NewAnalyzer(ds)
	if err != nil {
		return nil, nil, err
	}
	levelDemands := make([]taskCache, len(choices))
	for i, c := range choices {
		t := c.Task
		levelDemands[i].levels = make([]dbf.Demand, len(t.Levels))
		for lv := range t.Levels {
			o, err := dbf.NewOffloaded(t.SetupAt(lv), t.SecondPhaseAt(lv),
				t.Deadline, t.Period, t.Levels[lv].Response)
			if err != nil {
				continue
			}
			levelDemands[i].levels[lv] = o
		}
	}
	return az, levelDemands, nil
}

// refImproveLoop is the original exact-upgrade loop: every round
// probes the candidates in (task, level) index order and runs QPA on
// each one whose gain beats the running best, so the strict > hands
// gain ties to the earliest index. The shipped improveLoop must pick
// the same upgrade every round from a gain-ordered scan.
func refImproveLoop(out *Decision, az *dbf.Analyzer, caches []taskCache, guard upgradeGuard) {
	feasible := (*dbf.Analyzer).Feasible
	for {
		bestIdx, bestLevel := -1, 0
		bestGain := 0.0
		for i, c := range out.Choices {
			t := c.Task
			from := -1 // local
			cur := t.EffectiveWeight() * t.LocalBenefit
			if c.Offload {
				from = c.Level
				cur = t.EffectiveWeight() * t.Levels[c.Level].Benefit
			}
			for lv := from + 1; lv < len(t.Levels); lv++ {
				gain := t.EffectiveWeight()*t.Levels[lv].Benefit - cur
				//rtlint:allow floatexact -- benefit objective is float64 by design; exactness guards time arithmetic only
				if gain <= bestGain {
					continue
				}
				cand := caches[i].levels[lv]
				if cand == nil {
					continue
				}
				if guard != nil && !guard.allows(i, lv) {
					continue
				}
				if az.With(i, cand, feasible) != nil {
					continue
				}
				bestIdx, bestLevel, bestGain = i, lv, gain
			}
		}
		if bestIdx < 0 {
			return
		}
		if err := az.Swap(bestIdx, caches[bestIdx].levels[bestLevel]); err != nil {
			return
		}
		c := &out.Choices[bestIdx]
		old := c.Expected
		c.Offload = true
		c.Level = bestLevel
		c.Expected = c.Task.EffectiveWeight() * c.Task.Levels[bestLevel].Benefit
		out.TotalExpected += c.Expected - old
		if guard != nil {
			guard.commit(bestIdx, bestLevel)
		}
	}
}

// refImproveWithExact is the from-scratch ImproveWithExact: the
// upgrade state is rebuilt from the choices, and the final total is
// evaluated by theorem3Of. guard may be nil.
func refImproveWithExact(d *Decision, guard func(out *Decision) upgradeGuard) *Decision {
	out := &Decision{
		Choices:       append([]Choice(nil), d.Choices...),
		TotalExpected: d.TotalExpected,
		Solver:        d.Solver,
		Repaired:      d.Repaired,
		ExactVerified: true,
	}
	if az, levelDemands, err := newUpgradeState(out.Choices); err == nil {
		var g upgradeGuard
		if guard != nil {
			g = guard(out)
		}
		refImproveLoop(out, az, levelDemands, g)
	}
	total, _ := theorem3Of(out.Choices)
	out.Theorem3Total = total
	return out
}

// refSolve is the reference's own solver dispatch over the stateless
// package entry points, so the references stay independent of solveOn
// and the persistent mckp.Solver it runs on.
func refSolve(in *mckp.Instance, s Solver) (mckp.Solution, error) {
	var sol mckp.Solution
	var err error
	switch s {
	case SolverDP:
		sol, err = mckp.SolveDP(in, 0)
	case SolverHEU:
		sol, err = mckp.SolveHEU(in)
	case SolverBrute:
		sol, err = mckp.SolveBruteForce(in)
	case SolverGreedy:
		sol, err = mckp.SolveGreedy(in)
	case SolverBnB:
		sol, err = mckp.SolveBnB(in)
	case SolverCore:
		var mk *mckp.Solver
		if mk, err = mckp.NewSolverFrom(in); err == nil {
			sol, err = mk.Solve()
		}
	default:
		return sol, fmt.Errorf("core: unknown solver %d", int(s))
	}
	if errors.Is(err, mckp.ErrInfeasible) {
		return sol, ErrInfeasible
	}
	return sol, err
}

// refDecide is the from-scratch single-server Decide: build the
// instance, solve, repair against theorem3Of, and optionally upgrade
// through refImproveWithExact.
func refDecide(set task.Set, opts Options) (*Decision, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return nil, errors.New("core: empty task set")
	}
	in, maps, err := buildInstance(set)
	if err != nil {
		return nil, err
	}
	sol, err := refSolve(in, opts.Solver)
	if err != nil {
		return nil, err
	}
	d := assembleDecision(set, mapCaches(maps), sol, opts.Solver)
	if err := refRepairDecision(d, theorem3Of); err != nil {
		return nil, err
	}
	if opts.ExactUpgrade {
		return refImproveWithExact(d, nil), nil
	}
	return d, nil
}

// TestDecideMatchesReference is the independent oracle of the shipped
// single-server pipeline: for every solver, with and without the exact
// upgrade, Decide must match the from-scratch refDecide bit for bit —
// or fail exactly when it fails. Half the sets come from the §6.2
// random generator at utilizations up to 0.95, half from the churn
// generator (constrained deadlines, post-processing, weights).
func TestDecideMatchesReference(t *testing.T) {
	solvers := []Solver{SolverDP, SolverHEU, SolverBrute, SolverGreedy, SolverBnB, SolverCore}
	rng := stats.NewRNG(4242)
	compared := 0
	for trial := 0; trial < 40; trial++ {
		n := rng.IntN(6) + 2
		var set task.Set
		if trial%2 == 0 {
			p := task.DefaultRandomSetParams()
			p.N = n
			p.Q = rng.IntN(4) + 1
			p.TotalUtil = rng.Uniform(0.2, 0.95)
			p.RespLoFrac = 0.2
			p.RespHiFrac = 0.9
			var err error
			if set, err = task.GenerateRandomSet(rng.Fork(), p); err != nil {
				t.Fatal(err)
			}
		} else {
			set = randomFleetSet(rng, n)
		}
		for _, s := range solvers {
			for _, exact := range []bool{false, true} {
				opts := Options{Solver: s, ExactUpgrade: exact}
				ctx := fmt.Sprintf("trial %d (solver %v exact=%v)", trial, s, exact)
				got, gotErr := Decide(set, opts)
				want, wantErr := refDecide(set, opts)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error mismatch: %v vs reference %v", ctx, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				requireSameDecision(t, got, want, ctx)
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no decision was compared")
	}
}

// TestRepairDecisionMatchesReference drives the Theorem-3 repair loop
// past its first check on hand-built choice vectors and holds it to
// refRepairDecision: same error, choices, repair count, bitwise
// objective and exact total. Each task has T = D = 100ms, C = 10ms
// (density 1/10), C1 = 5ms, C2 = 10ms and one level, so a level at
// R = 50ms weighs 3/10 and one at R = D has no demand model.
func TestRepairDecisionMatchesReference(t *testing.T) {
	mk := func(id int, r rtime.Duration, benefit float64) *task.Task {
		return &task.Task{
			ID: id, Period: ms(100), Deadline: ms(100),
			LocalWCET: ms(10), Setup: ms(5), Compensation: ms(10),
			LocalBenefit: 1, Levels: []task.Level{{Response: r, Benefit: benefit}},
		}
	}
	off := func(tk *task.Task) Choice {
		return Choice{Task: tk, Offload: true, Expected: tk.EffectiveWeight() * tk.Levels[0].Benefit}
	}
	loc := func(tk *task.Task) Choice {
		return Choice{Task: tk, Expected: tk.EffectiveWeight() * tk.LocalBenefit}
	}
	for _, tc := range []struct {
		name         string
		choices      []Choice
		wantErr      error
		wantRepaired int
		wantOffload  []bool
	}{
		{
			// 5·3/10 = 3/2; the downgrades take the losses 1, 1.5 and
			// then the tie at 2 between tasks 0 and 2 goes to task 0,
			// leaving 2·3/10 + 3/10 = 9/10.
			name: "three downgrades, tie by index",
			choices: []Choice{off(mk(0, ms(50), 3)), off(mk(1, ms(50), 2)), off(mk(2, ms(50), 3)),
				off(mk(3, ms(50), 4)), off(mk(4, ms(50), 2.5))},
			wantRepaired: 3,
			wantOffload:  []bool{false, false, true, true, false},
		},
		{
			// Task 0's level has R = D: no demand model, so the vector
			// fails although its weights would sum to 2/5.
			name:         "no demand model, cheapest",
			choices:      []Choice{off(mk(0, ms(100), 2)), off(mk(1, ms(50), 5))},
			wantRepaired: 1,
			wantOffload:  []bool{false, true},
		},
		{
			// The model-less choice costs more to drop, so the valid
			// one goes first and the vector still fails until both are
			// local.
			name:         "no demand model, dearest",
			choices:      []Choice{off(mk(0, ms(100), 9)), off(mk(1, ms(50), 2))},
			wantRepaired: 2,
			wantOffload:  []bool{false, false},
		},
		{
			name:    "all local over 1",
			choices: []Choice{loc(heavyLocalTask(0, ms(60), ms(100))), loc(heavyLocalTask(1, ms(60), ms(100)))},
			wantErr: ErrInfeasible,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func() *Decision {
				d := &Decision{Choices: append([]Choice(nil), tc.choices...)}
				for _, c := range d.Choices {
					d.TotalExpected += c.Expected
				}
				return d
			}
			got, want := fresh(), fresh()
			caches := choiceCaches(got.Choices)
			var t3 theorem3Sum
			t3.fill(caches, got.Choices)
			gotErr := repairDecision(got, &t3)
			got.Theorem3Total = t3.total()
			wantErr := refRepairDecision(want, theorem3Of)
			if !errors.Is(gotErr, tc.wantErr) || !errors.Is(wantErr, tc.wantErr) {
				t.Fatalf("errors %v (reference %v), want %v", gotErr, wantErr, tc.wantErr)
			}
			if tc.wantErr != nil {
				return
			}
			for i := range got.Choices {
				g, w := got.Choices[i], want.Choices[i]
				if g.Offload != w.Offload || g.Level != w.Level ||
					math.Float64bits(g.Expected) != math.Float64bits(w.Expected) {
					t.Fatalf("choice %d: got {off=%v lv=%d exp=%x}, reference {off=%v lv=%d exp=%x}",
						i, g.Offload, g.Level, g.Expected, w.Offload, w.Level, w.Expected)
				}
				if g.Offload != tc.wantOffload[i] {
					t.Fatalf("choice %d offloaded %v, want %v", i, g.Offload, tc.wantOffload[i])
				}
			}
			if got.Repaired != want.Repaired || got.Repaired != tc.wantRepaired {
				t.Fatalf("Repaired %d (reference %d), want %d", got.Repaired, want.Repaired, tc.wantRepaired)
			}
			if math.Float64bits(got.TotalExpected) != math.Float64bits(want.TotalExpected) {
				t.Fatalf("TotalExpected %x, reference %x", got.TotalExpected, want.TotalExpected)
			}
			if got.Theorem3Total.Cmp(want.Theorem3Total) != 0 {
				t.Fatalf("Theorem3Total %v, reference %v", got.Theorem3Total, want.Theorem3Total)
			}
		})
	}
}
