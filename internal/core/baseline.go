package core

import (
	"errors"

	"rtoffload/internal/task"
)

// SolverServerFaster labels decisions produced by the related-work
// baseline DecideServerFaster.
const SolverServerFaster Solver = 100

// DecideServerFaster implements the greedy offloading policy of the
// related work (Nimmagadda et al., IROS 2010): a task is offloaded
// whenever the estimated server response time is shorter than its
// local execution time — the rationale being that the result then
// arrives before local computation would have finished. Each task
// independently picks the highest-benefit level whose budget satisfies
// ri,j < Ci.
//
// The policy coordinates nothing across tasks: it neither runs a
// schedulability test nor limits how many tasks offload, which is
// exactly the weakness the paper's mechanism fixes (§2). The returned
// decision carries the exact Theorem-3 total for inspection — it may
// well exceed 1, and simulating such a configuration misses deadlines.
func DecideServerFaster(set task.Set) (*Decision, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return nil, errors.New("core: empty task set")
	}
	d := &Decision{Solver: SolverServerFaster}
	for _, t := range set {
		ch := Choice{Task: t, Expected: t.EffectiveWeight() * t.LocalBenefit}
		for j := len(t.Levels) - 1; j >= 0; j-- {
			if t.Levels[j].Response < t.LocalWCET {
				ch.Offload = true
				ch.Level = j
				ch.Expected = t.EffectiveWeight() * t.Levels[j].Benefit
				break
			}
		}
		d.Choices = append(d.Choices, ch)
		d.TotalExpected += ch.Expected
	}
	d.Theorem3Total, _ = theorem3Total(d.Choices)
	return d, nil
}
