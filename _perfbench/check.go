package main

import (
	"fmt"
	"math/big"

	"rtoffload/internal/admitd"
	"rtoffload/internal/core"
	"rtoffload/internal/dbf"
	"rtoffload/internal/mckp"
	"rtoffload/internal/task"
)

// choicesOf resolves a view's wire choices against the known tasks: one
// choice per known task, budgets matching the chosen level, and the
// expected benefit recomputed from the task.
func choicesOf(cs []admitd.ChoiceView, known []*task.Task) ([]core.Choice, error) {
	byID := make(map[int]*task.Task, len(known))
	for _, t := range known {
		byID[t.ID] = t
	}
	out := make([]core.Choice, 0, len(cs))
	for _, c := range cs {
		t := byID[c.TaskID]
		if t == nil {
			return nil, fmt.Errorf("choice for task %d, which is not admitted or appears twice", c.TaskID)
		}
		delete(byID, c.TaskID)
		ch := core.Choice{Task: t, Offload: c.Offload, Level: c.Level, Expected: t.EffectiveWeight() * t.LocalBenefit}
		if c.Offload {
			if c.Level < 0 || c.Level >= len(t.Levels) {
				return nil, fmt.Errorf("task %d: level %d out of range", t.ID, c.Level)
			}
			if c.Budget != t.Levels[c.Level].Response {
				return nil, fmt.Errorf("task %d: budget %v, level %d has %v", t.ID, c.Budget, c.Level, t.Levels[c.Level].Response)
			}
			ch.Expected = t.EffectiveWeight() * t.Levels[c.Level].Benefit
		} else if c.Budget != 0 {
			return nil, fmt.Errorf("task %d: local choice with budget %v", t.ID, c.Budget)
		}
		out = append(out, ch)
	}
	return out, nil
}

// verifyExact runs the exact processor-demand test on a choice vector.
func verifyExact(choices []core.Choice) error {
	if err := core.VerifyExact(&core.Decision{Choices: choices}); err != nil {
		return fmt.Errorf("choices fail the exact demand test: %w", err)
	}
	return nil
}

// demandsOf builds the exact demand models of a choice vector, plus the
// offloaded and local split Theorem 3 takes.
func demandsOf(choices []core.Choice) ([]dbf.Demand, []dbf.Offloaded, []dbf.Sporadic, error) {
	ds := make([]dbf.Demand, 0, len(choices))
	var off []dbf.Offloaded
	var loc []dbf.Sporadic
	for _, c := range choices {
		t := c.Task
		if c.Offload {
			o, err := dbf.NewOffloaded(t.SetupAt(c.Level), t.SecondPhaseAt(c.Level), t.Deadline, t.Period, t.Levels[c.Level].Response)
			if err != nil {
				return nil, nil, nil, err
			}
			ds, off = append(ds, o), append(off, o)
			continue
		}
		s, err := dbf.NewSporadic(t.LocalWCET, t.Deadline, t.Period)
		if err != nil {
			return nil, nil, nil, err
		}
		ds, loc = append(ds, s), append(loc, s)
	}
	return ds, off, loc, nil
}

var ratOne = big.NewRat(1, 1)

// mckpInstance builds the §5.2 instance of a task set from the task
// model's own weights: item 0 is local execution (Ci/Di), then one item
// per offloading level whose Theorem-3 weight (Ci,1+Ci,2)/(Di−ri,j)
// fits the capacity.
func mckpInstance(set task.Set) (*mckp.Instance, error) {
	in := &mckp.Instance{Capacity: 1}
	for _, t := range set {
		lw, _ := t.Density().Float64()
		cl := mckp.Class{Items: []mckp.Item{{Weight: lw, Profit: t.EffectiveWeight() * t.LocalBenefit}}}
		for j := range t.Levels {
			w, err := t.OffloadWeight(j)
			if err != nil || w.Cmp(ratOne) > 0 {
				continue
			}
			if _, err := dbf.NewOffloaded(t.SetupAt(j), t.SecondPhaseAt(j), t.Deadline, t.Period, t.Levels[j].Response); err != nil {
				continue
			}
			wf, _ := w.Float64()
			cl.Items = append(cl.Items, mckp.Item{Weight: wf, Profit: t.EffectiveWeight() * t.Levels[j].Benefit})
		}
		in.Classes = append(in.Classes, cl)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// solveWith runs the MCKP solver core.Decide would use for s.
func solveWith(s core.Solver, in *mckp.Instance) (mckp.Solution, error) {
	switch s {
	case core.SolverDP:
		return mckp.SolveDP(in, 0)
	case core.SolverHEU:
		return mckp.SolveHEU(in)
	case core.SolverBnB:
		return mckp.SolveBnB(in)
	default:
		return solveCore(in)
	}
}

func solveCore(in *mckp.Instance) (mckp.Solution, error) {
	s, err := mckp.NewSolverFrom(in)
	if err != nil {
		return mckp.Solution{}, err
	}
	return s.Solve()
}

// solverNamed maps a view's solver name back to the option.
func solverNamed(name string) (core.Solver, error) {
	for _, s := range []core.Solver{core.SolverDP, core.SolverHEU, core.SolverBnB, core.SolverCore} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown solver %q in decision view", name)
}

// levelRank orders choices: −1 for local, else the offloading level.
func levelRank(c core.Choice) int {
	if !c.Offload {
		return -1
	}
	return c.Level
}
