package core

import (
	"fmt"
	"math"
	"testing"

	"rtoffload/internal/dbf"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// tiedEdgeSet draws n light near-edge tasks with integer benefits and
// weights in {1, 2}, so equal upgrade gains — across tasks and across
// the levels of one task — are common. A third of the tasks give one
// level a lighter compensation sub-job of its own, so an upgrade onto
// it does not dominate the level below.
func tiedEdgeSet(rng *stats.RNG, n int) task.Set {
	set := make(task.Set, n)
	for i := range set {
		tk := lightEdgeTask(rng, i)
		tk.Weight = float64(rng.IntN(2) + 1)
		tk.LocalBenefit = math.Round(tk.LocalBenefit)
		for j := range tk.Levels {
			tk.Levels[j].Benefit = math.Round(tk.Levels[j].Benefit)
		}
		if rng.Bool(1.0 / 3) {
			tk.Levels[rng.IntN(len(tk.Levels))].Compensation = tk.Compensation/2 + 1
		}
		set[i] = tk
	}
	return set
}

// upgradeCoverage counts the ordering hazards an upgrade pass met, and
// the batch events the shipped loop met: batches cut by a
// non-dominating head, batches whose last configuration QPA rejected
// (so retreat ran), fleet batches of two or more members in which the
// guard vetoed a candidate ranked above a head, and probes a witness
// window settled without a QPA.
type upgradeCoverage struct {
	tieTasks, tieLevels, infeasibleTop, vetoed int
	cuts, rejects, vetoedRuns, screened        int
}

// note replays the upgrade rounds over a copy of d's choices and
// classifies each: whether the winner shares its gain with another
// admissible candidate of a different task or of another level of its
// own task, whether a higher-ranked candidate failed QPA, and whether
// one was vetoed by the guard.
func (cv *upgradeCoverage) note(d *Decision, caches []taskCache, guard upgradeGuard) {
	choices := append([]Choice(nil), d.Choices...)
	az := freshAnalyzer(choiceDemands(caches, choices))
	if az == nil {
		return
	}
	feasible := (*dbf.Analyzer).Feasible
	for {
		cands := upgradeCands(nil, choices, caches)
		admissible := make([]bool, len(cands))
		win := -1
		for k, c := range cands {
			if guard != nil && !guard.allows(c.i, c.lv) {
				if win < 0 {
					cv.vetoed++
				}
				continue
			}
			if az.With(c.i, caches[c.i].levels[c.lv], feasible) != nil {
				if win < 0 {
					cv.infeasibleTop++
				}
				continue
			}
			admissible[k] = true
			if win < 0 {
				win = k
			}
		}
		if win < 0 {
			return
		}
		w := cands[win]
		for k, c := range cands {
			if k == win || !admissible[k] || c.gain != w.gain {
				continue
			}
			if c.i != w.i {
				cv.tieTasks++
			} else {
				cv.tieLevels++
			}
		}
		if az.Swap(w.i, caches[w.i].levels[w.lv]) != nil {
			return
		}
		choices[w.i].Offload, choices[w.i].Level = true, w.lv
		if guard != nil {
			guard.commit(w.i, w.lv)
		}
	}
}

// TestImproveLoopMatchesReference holds the gain-ordered upgrade scan
// to the frozen index-order refImproveLoop, on single-server sets with
// many exact gain ties and on fleet sets whose tight pools make the
// ledger veto upgrades. Both start from the same certified Theorem-3
// decision; choices, the bitwise objective and the exact Theorem-3
// total must agree. The coverage counters prove the sweep met each
// ordering hazard: gain ties across tasks and across levels, a
// top-ranked candidate QPA rejects, and a pool-ledger veto; and each
// batch event: a batch cut by a non-dominating head, a batch whose
// last configuration QPA rejects, a fleet batch of two or more
// members past a vetoed candidate, and a probe the witness screen
// settles.
func TestImproveLoopMatchesReference(t *testing.T) {
	var cv upgradeCoverage
	rng := stats.NewRNG(90210)
	for trial := 0; trial < 40; trial++ {
		set := tiedEdgeSet(rng, 24+rng.IntN(12))
		for _, shape := range []string{"", "hot", "uniform"} {
			opts := Options{Solver: SolverCore}
			if shape != "" {
				opts.Fleet = campaignFleetShape(shape)
			}
			d, err := Decide(set, opts)
			if err != nil {
				continue
			}
			caches := choiceCaches(d.Choices)
			var guard upgradeGuard
			if shape != "" {
				guard = newPoolLedger(opts.Fleet, d.Choices, caches)
				cv.note(d, caches, newPoolLedger(opts.Fleet, d.Choices, caches))
			} else {
				cv.note(d, caches, nil)
			}
			var sc certifyScratch
			sc.t3.fill(caches, d.Choices)
			got := exactUpgrade(d, caches, freshAnalyzer, guard, &sc)
			got.Theorem3Total = sc.t3.total()
			cv.cuts += sc.stats.cuts
			cv.rejects += sc.stats.rejects
			cv.vetoedRuns += sc.stats.vetoedRuns
			cv.screened += sc.stats.screened
			want := refImproveWithExact(d, func(out *Decision) upgradeGuard {
				if shape == "" {
					return nil
				}
				return newPoolLedger(opts.Fleet, out.Choices, caches)
			})
			ctx := fmt.Sprintf("trial %d fleet %q", trial, shape)
			if len(got.Choices) != len(want.Choices) {
				t.Fatalf("%s: %d choices, reference has %d", ctx, len(got.Choices), len(want.Choices))
			}
			for i := range got.Choices {
				g, w := got.Choices[i], want.Choices[i]
				if g.Task != w.Task || g.Offload != w.Offload || g.Level != w.Level ||
					math.Float64bits(g.Expected) != math.Float64bits(w.Expected) {
					t.Fatalf("%s: choice %d: got {off=%v lv=%d exp=%x}, reference {off=%v lv=%d exp=%x}",
						ctx, i, g.Offload, g.Level, g.Expected, w.Offload, w.Level, w.Expected)
				}
			}
			if math.Float64bits(got.TotalExpected) != math.Float64bits(want.TotalExpected) {
				t.Fatalf("%s: TotalExpected %x, reference %x", ctx, got.TotalExpected, want.TotalExpected)
			}
			if got.Theorem3Total.Cmp(want.Theorem3Total) != 0 {
				t.Fatalf("%s: Theorem3Total %v, reference %v", ctx, got.Theorem3Total, want.Theorem3Total)
			}
		}
	}
	t.Logf("coverage: %+v", cv)
	if cv.tieTasks == 0 || cv.tieLevels == 0 || cv.infeasibleTop == 0 || cv.vetoed == 0 {
		t.Fatalf("sweep missed an ordering hazard: %+v", cv)
	}
	if cv.cuts == 0 || cv.rejects == 0 || cv.vetoedRuns == 0 || cv.screened == 0 {
		t.Fatalf("sweep missed a batch event: %+v", cv)
	}
}
