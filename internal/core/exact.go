package core

import (
	"fmt"

	"rtoffload/internal/dbf"
	"rtoffload/internal/task"
)

// demandOf builds the exact demand model of one choice: a
// dbf.Offloaded (split sub-jobs, suspension ≤ Ri) when offloading,
// else a dbf.Sporadic.
func demandOf(c Choice) (dbf.Demand, error) {
	t := c.Task
	if c.Offload {
		return dbf.NewOffloaded(t.SetupAt(c.Level), t.SecondPhaseAt(c.Level),
			t.Deadline, t.Period, t.Levels[c.Level].Response)
	}
	return dbf.NewSporadic(t.LocalWCET, t.Deadline, t.Period)
}

// demandsOf builds the exact demand model of a choice vector.
func demandsOf(choices []Choice) ([]dbf.Demand, error) {
	ds := make([]dbf.Demand, 0, len(choices))
	for _, c := range choices {
		d, err := demandOf(c)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// ImproveWithExact upgrades a Theorem-3 decision using the exact
// processor-demand test (QPA over the true split demand bound
// functions) as the feasibility oracle. Theorem 3's linear bound
// (Ci,1+Ci,2)/(Di−Ri) is pessimistic for large budgets Ri; the exact
// test often leaves room for higher offloading levels. The pass
// repeatedly applies the single level upgrade with the largest
// weighted-benefit gain that QPA still admits, until none fits.
//
// Each candidate is tried through an incremental dbf.Analyzer — an
// O(1) demand swap against cached aggregates instead of a full
// rebuild — so the pass is cheap enough for online re-decision. The
// per-(task, level) candidate demands are constructed once up front.
//
// The result may exceed 1 on the Theorem-3 scale (that is the point);
// its ExactVerified flag is set, and the per-claim guarantee is the
// same as the paper's: every deadline is met even if no result ever
// returns. The input decision is not modified.
func ImproveWithExact(d *Decision, set task.Set) (*Decision, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil decision")
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
	if az, levelDemands, err := newUpgradeState(out.Choices); err == nil {
		improveLoop(out, az, levelDemands, nil)
	}
	total, _ := theorem3Of(out.Choices)
	out.Theorem3Total = total
	return out, nil
}

// newUpgradeState builds the Analyzer over the decision's current
// demands plus the candidate demand of every (task, level) pair.
// Levels that cannot form a valid split model stay nil — they are
// never feasible, matching the rebuild-from-scratch behavior.
func newUpgradeState(choices []Choice) (*dbf.Analyzer, [][]dbf.Demand, error) {
	ds, err := demandsOf(choices)
	if err != nil {
		return nil, nil, err
	}
	az, err := dbf.NewAnalyzer(ds)
	if err != nil {
		return nil, nil, err
	}
	levelDemands := make([][]dbf.Demand, len(choices))
	for i, c := range choices {
		t := c.Task
		levelDemands[i] = make([]dbf.Demand, len(t.Levels))
		for lv := range t.Levels {
			o, err := dbf.NewOffloaded(t.SetupAt(lv), t.SecondPhaseAt(lv),
				t.Deadline, t.Period, t.Levels[lv].Response)
			if err != nil {
				continue
			}
			levelDemands[i][lv] = o
		}
	}
	return az, levelDemands, nil
}

// upgradeGuard vetoes exact-upgrade candidates before the feasibility
// probe and is told of every upgrade applied, so a stateful guard (the
// fleet's poolLedger) stays in sync with the decision.
type upgradeGuard interface {
	allows(i, lv int) bool
	commit(i, lv int)
}

// improveLoop applies the greedy best-gain upgrade until no candidate
// passes the exact test, keeping the Analyzer in sync with out. A
// non-nil guard vetoes candidates before the feasibility probe — the
// fleet path uses it to keep upgrades within the capacity pools.
func improveLoop(out *Decision, az *dbf.Analyzer, levelDemands [][]dbf.Demand, guard upgradeGuard) {
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
				cand := levelDemands[i][lv]
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
		if err := az.Swap(bestIdx, levelDemands[bestIdx][bestLevel]); err != nil {
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

// VerifyExact runs the exact processor-demand test on a decision's
// configuration; nil means every deadline is guaranteed.
func VerifyExact(d *Decision) error {
	ds, err := demandsOf(d.Choices)
	if err != nil {
		return err
	}
	az, err := dbf.NewAnalyzer(ds)
	if err != nil {
		return err
	}
	return az.Feasible()
}
