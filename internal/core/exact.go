package core

import (
	"fmt"
	"slices"

	"rtoffload/internal/dbf"
	"rtoffload/internal/task"
)

// demandOf builds the exact demand model of one choice: a
// dbf.Offloaded (split sub-jobs, suspension ≤ Ri) when offloading,
// else a dbf.Sporadic. It is the one demand constructor of the
// package; taskDemands caches its results per task.
func demandOf(c Choice) (dbf.Demand, error) {
	t := c.Task
	if c.Offload {
		return dbf.NewOffloaded(t.SetupAt(c.Level), t.SecondPhaseAt(c.Level),
			t.Deadline, t.Period, t.Levels[c.Level].Response)
	}
	return dbf.NewSporadic(t.LocalWCET, t.Deadline, t.Period)
}

// demandsOf builds the exact demand model of a choice vector for
// VerifyExact. A choice without a valid model keeps a nil entry, and
// the first construction error is returned alongside.
func demandsOf(choices []Choice) ([]dbf.Demand, error) {
	ds := make([]dbf.Demand, len(choices))
	var first error
	for i, c := range choices {
		d, err := demandOf(c)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		ds[i] = d
	}
	return ds, first
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
// returns. The input decision is not modified. Decide runs the same
// pass when Options.ExactUpgrade is set.
func ImproveWithExact(d *Decision, set task.Set) (*Decision, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil decision")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	caches := choiceCaches(d.Choices)
	var sc certifyScratch
	sc.t3.fill(caches, d.Choices)
	out := exactUpgrade(d, caches, freshAnalyzer, nil, &sc)
	out.Theorem3Total = sc.t3.total()
	return out, nil
}

// exactUpgrade runs the exact-upgrade pass on a copy of d: analyzer
// supplies the dbf.Analyzer over the copy's current demands (nil skips
// the upgrade), and improveLoop applies the upgrades under guard with
// sc's candidate buffer, patching sc.t3 — which holds d's Theorem-3
// total — by each upgrade's delta. The caller records the total.
func exactUpgrade(d *Decision, caches []taskCache, analyzer func([]dbf.Demand) *dbf.Analyzer, guard upgradeGuard, sc *certifyScratch) *Decision {
	out := &Decision{
		Choices:       append([]Choice(nil), d.Choices...),
		TotalExpected: d.TotalExpected,
		Solver:        d.Solver,
		Repaired:      d.Repaired,
		ExactVerified: true,
	}
	if az := analyzer(choiceDemands(caches, out.Choices)); az != nil {
		improveLoop(out, az, caches, guard, sc)
	}
	return out
}

// upgradeGuard vetoes exact-upgrade candidates before the feasibility
// probe and is told of every upgrade applied, so a stateful guard (the
// fleet's poolLedger) stays in sync with the decision.
type upgradeGuard interface {
	allows(i, lv int) bool
	commit(i, lv int)
}

// upgradeCand is one exact-upgrade candidate of a round: moving choice
// i to offloading level lv gains gain in weighted benefit.
type upgradeCand struct {
	gain  float64
	i, lv int
}

// byGain orders upgrade candidates by descending gain, ties by
// ascending task index, then ascending level.
func byGain(a, b upgradeCand) int {
	//rtlint:allow floatexact -- benefit objective is float64 by design; exactness guards time arithmetic only
	if a.gain != b.gain {
		//rtlint:allow floatexact -- benefit objective is float64 by design; exactness guards time arithmetic only
		if a.gain > b.gain {
			return -1
		}
		return 1
	}
	if a.i != b.i {
		return a.i - b.i
	}
	return a.lv - b.lv
}

// upgradeCands refills buf with every candidate upgrade of choices
// that has a positive gain and a demand model, in byGain order. buf
// grows at most once per call, to hold every level of every task.
func upgradeCands(buf []upgradeCand, choices []Choice, caches []taskCache) []upgradeCand {
	n := 0
	for i := range caches {
		n += len(caches[i].levels)
	}
	buf = slices.Grow(buf[:0], n)
	for i, c := range choices {
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
			if !(gain > 0) || caches[i].levels[lv] == nil {
				continue
			}
			buf = append(buf, upgradeCand{gain: gain, i: i, lv: lv})
		}
	}
	slices.SortFunc(buf, byGain)
	return buf
}

// improveLoop applies the greedy best-gain upgrade until no candidate
// passes the exact test, keeping the Analyzer in sync with out. A
// non-nil guard vetoes candidates before the feasibility probe — the
// fleet path uses it to keep upgrades within the capacity pools.
//
// Each round scans its candidates in byGain order and applies the
// first one the guard allows and QPA admits. That is the argmax of
// gain over the admissible candidates, ties going to the earliest
// (task, level), and it costs one probe per candidate ranked above
// the winner instead of one per running-best improvement in index
// order. Task validation keeps every weighted benefit finite, so no
// gain is NaN and the order is total. sc.upgradeBuf is the candidate
// scratch, reused across rounds and — when the caller keeps sc —
// across calls; sc.t3 holds out's Theorem-3 total and follows every
// upgrade.
func improveLoop(out *Decision, az *dbf.Analyzer, caches []taskCache, guard upgradeGuard, sc *certifyScratch) {
	buf := &sc.upgradeBuf
	feasible := (*dbf.Analyzer).Feasible
	for {
		*buf = upgradeCands(*buf, out.Choices, caches)
		best := -1
		for k, c := range *buf {
			if guard != nil && !guard.allows(c.i, c.lv) {
				continue
			}
			if az.With(c.i, caches[c.i].levels[c.lv], feasible) == nil {
				best = k
				break
			}
		}
		if best < 0 {
			return
		}
		bestIdx, bestLevel := (*buf)[best].i, (*buf)[best].lv
		if err := az.Swap(bestIdx, caches[bestIdx].levels[bestLevel]); err != nil {
			return
		}
		c := &out.Choices[bestIdx]
		sc.t3.move(&caches[bestIdx], c.point(), bestLevel)
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
