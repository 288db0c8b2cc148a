package core

import (
	"errors"
	"math/big"

	"rtoffload/internal/fleet"
	"rtoffload/internal/rtime"
	"rtoffload/internal/task"
)

// This file keeps the original from-scratch fleet capacity repair as a
// test-only oracle. Every candidate move re-accumulates every capacity
// pool through fleet.Accumulate — quadratic in the offloaded choices,
// but obviously correct. The shipped pass (fleet.go) works on an
// exact incremental pool ledger and must stay bit-identical to this
// one: TestFleetRepairMatchesReference and FuzzFleetDecide hold it to
// that.

// refDecideFleet is the from-scratch fleet Decide (decide_reference_test.go's
// refDecide over the expanded set) with the reference repair and the
// reference capacity guard.
func refDecideFleet(set task.Set, opts Options) (*Decision, error) {
	if err := opts.Fleet.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return nil, errors.New("core: empty task set")
	}
	derived, err := opts.Fleet.ExpandSet(set)
	if err != nil {
		return nil, err
	}
	in, maps, err := buildInstance(derived)
	if err != nil {
		return nil, err
	}
	sol, err := refSolve(in, opts.Solver)
	if err != nil {
		return nil, err
	}
	d := assembleDecision(derived, mapCaches(maps), sol, opts.Solver)
	if err := refRepairFleetDecision(d, opts.Fleet, theorem3Of); err != nil {
		return nil, err
	}
	if !opts.ExactUpgrade {
		return d, nil
	}
	out := refImproveWithExact(d, func(out *Decision) upgradeGuard {
		return refGuard{out: out, allow: refCapacityGuard(opts.Fleet)}
	})
	out.ServerLoads = refDecisionLoads(out.Choices, opts.Fleet)
	return out, nil
}

// refGuard adapts the reference's stateless guard closure to the
// upgradeGuard interface: it re-reads the decision's choices on every
// call, so commits need no bookkeeping.
type refGuard struct {
	out   *Decision
	allow func([]Choice, int, int) bool
}

func (g refGuard) allows(i, lv int) bool { return g.allow(g.out.Choices, i, lv) }
func (refGuard) commit(int, int)         {}

// refDecisionLoads folds the decision's offloaded choices into the
// fleet's capacity pools: each choice contributes its exact occupancy
// Ri/Ti to the server it routes to (and to that server's group).
func refDecisionLoads(choices []Choice, f fleet.Fleet) []fleet.Load {
	us := make([]fleet.Usage, 0, len(choices))
	for _, c := range choices {
		if !c.Offload {
			continue
		}
		t := c.Task
		us = append(us, fleet.Usage{
			Server:    t.Levels[c.Level].ServerID,
			Occupancy: rtime.Ratio(t.Levels[c.Level].Response, t.Period),
		})
	}
	return f.Accumulate(us)
}

// refRepairFleetDecision is the reference combined exact repair: the
// Theorem-3 repair, then the capacity pools, recomputing every pool
// from scratch on every iteration and for every candidate move.
func refRepairFleetDecision(d *Decision, f fleet.Fleet, theorem3 func([]Choice) (*big.Rat, bool)) error {
	if err := refRepairDecision(d, theorem3); err != nil {
		return err
	}
	for {
		loads := refDecisionLoads(d.Choices, f)
		oi := fleet.FirstOver(loads)
		if oi < 0 {
			d.ServerLoads = loads
			return nil
		}
		if refRerouteCheapest(d, f, loads, oi) {
			continue
		}
		idx := refCheapestDowngradeIn(d.Choices, f, loads[oi])
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
		if err := refRepairDecision(d, theorem3); err != nil {
			return err
		}
	}
}

// refContributes reports whether choice c (offloaded) routes load into
// the given pool.
func refContributes(f fleet.Fleet, c Choice, pool fleet.Load) bool {
	si := f.ServerIndex(c.Task.Levels[c.Level].ServerID)
	if si < 0 {
		return false
	}
	if pool.Server {
		return f.Servers[si].ID == pool.Pool
	}
	return f.Servers[si].Group == pool.Pool
}

// refRerouteCheapest moves one choice off the violated pool loads[oi]
// onto the alternative point with the smallest expected-benefit loss
// (ties: lower task index, then lower point index).
func refRerouteCheapest(d *Decision, f fleet.Fleet, loads []fleet.Load, oi int) bool {
	bestIdx, bestLv := -1, 0
	bestLoss := 0.0
	var bestW *big.Rat
	for i, c := range d.Choices {
		if !c.Offload || !refContributes(f, c, loads[oi]) {
			continue
		}
		t := c.Task
		wOld, err := t.OffloadWeight(c.Level)
		if err != nil {
			continue
		}
		for lv := range t.Levels {
			if lv == c.Level {
				continue
			}
			wNew, err := t.OffloadWeight(lv)
			if err != nil {
				continue
			}
			if _, err := demandOf(Choice{Task: t, Offload: true, Level: lv}); err != nil {
				continue // no valid split model: theorem3 would reject it
			}
			total := new(big.Rat).Sub(d.Theorem3Total, wOld)
			total.Add(total, wNew)
			if total.Cmp(ratOne) > 0 {
				continue
			}
			if !refMoveKeepsPools(d, f, loads, oi, i, lv) {
				continue
			}
			loss := c.Expected - t.EffectiveWeight()*t.Levels[lv].Benefit
			if bestIdx == -1 || loss < bestLoss {
				bestIdx, bestLv, bestLoss, bestW = i, lv, loss, total
			}
		}
	}
	if bestIdx < 0 {
		return false
	}
	c := &d.Choices[bestIdx]
	d.TotalExpected -= c.Expected
	c.Level = bestLv
	c.Expected = c.Task.EffectiveWeight() * c.Task.Levels[bestLv].Benefit
	d.TotalExpected += c.Expected
	d.Theorem3Total = bestW
	return true
}

// refMoveKeepsPools simulates rerouting choice i to point lv and
// checks the capacity conditions: the violated pool's occupancy
// strictly decreases and no within-capacity pool goes over.
func refMoveKeepsPools(d *Decision, f fleet.Fleet, loads []fleet.Load, oi, i, lv int) bool {
	old := d.Choices[i]
	d.Choices[i].Level = lv
	after := refDecisionLoads(d.Choices, f)
	d.Choices[i] = old
	if after[oi].Occupancy.Cmp(loads[oi].Occupancy) >= 0 {
		return false
	}
	for k := range after {
		if !loads[k].Over() && after[k].Over() {
			return false
		}
	}
	return true
}

// refCheapestDowngradeIn picks the offloaded choice contributing to
// the given pool whose switch to local costs the least expected
// benefit; −1 when the pool has no offloaded contributors.
func refCheapestDowngradeIn(choices []Choice, f fleet.Fleet, pool fleet.Load) int {
	best, bestLoss := -1, 0.0
	for i, c := range choices {
		if !c.Offload || !refContributes(f, c, pool) {
			continue
		}
		loss := c.Expected - c.Task.EffectiveWeight()*c.Task.LocalBenefit
		if best == -1 || loss < bestLoss {
			best, bestLoss = i, loss
		}
	}
	return best
}

// refCapacityGuard returns the reference exact-upgrade guard: an
// upgrade candidate is admissible only if routing choice i to point lv
// leaves every capacity pool within its cap, checked by a full
// re-accumulation.
func refCapacityGuard(f fleet.Fleet) func([]Choice, int, int) bool {
	return func(choices []Choice, i, lv int) bool {
		old := choices[i]
		choices[i].Offload = true
		choices[i].Level = lv
		loads := refDecisionLoads(choices, f)
		choices[i] = old
		return fleet.FirstOver(loads) < 0
	}
}
