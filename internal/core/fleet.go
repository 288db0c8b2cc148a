package core

import (
	"fmt"

	"rtoffload/internal/dbf"
	"rtoffload/internal/fleet"
	"rtoffload/internal/task"
)

// This file generalizes the Offloading Decision Manager to a fleet of
// timing-unreliable servers (Options.Fleet). Decide expands every
// task with fleet.ExpandSet — each probed budget becomes one
// (server, budget) point per server, with server-scaled budgets,
// reliability-discounted benefits and ServerID routing — and then runs
// the paper's pipeline over the expanded classes (a point is just a
// level). The one fleet-specific step sits in certify, after the
// Theorem-3 repair: repairFleetDecision enforces the per-server and
// per-group occupancy pools exactly, draining each over-capacity pool
// by rerouting choices to alternative points that keep Theorem 3
// satisfied, falling back to downgrading the cheapest-loss choice to
// local execution. Its pool ledger then guards the exact upgrade, so
// no upgrade pushes a pool over its cap.
//
// A 1-server neutral fleet reproduces the single-server pipeline
// bit-for-bit (the expansion is verbatim and the capacity pass finds
// nothing to do) — fleet_diff_test.go proves this differentially.

// repairFleetDecision is the fleet decision's combined exact repair:
// first the Theorem-3 repair (identical to the single-server pass),
// then the capacity pools. While some pool is over capacity, the pass
// reroutes the cheapest-loss choice off the violated pool onto an
// alternative (server, budget) point — accepted only when the exact
// Theorem-3 sum stays ≤ 1, every within-capacity pool stays within
// capacity, and the violated pool's occupancy strictly decreases —
// and, when no reroute qualifies, downgrades the cheapest-loss choice
// on the violated pool to local execution and re-certifies Theorem 3.
//
// Termination: a pool that is within capacity never goes over again
// (reroute targets are checked, downgrades only remove load), so the
// set of violated pools only shrinks; each reroute strictly drains the
// first violated pool and lands the task on a pool that stays
// satisfied, and each downgrade strictly decreases the offloaded
// count. So each pool is the first violated over one phase at most,
// within which each reroute strictly lowers one choice's share of it:
// the pass takes at most pools × (points + choices) steps. Beyond
// that, which only an inexact capacity verdict can cause, it returns
// an error instead of looping. The pass is deterministic — candidates
// are ordered by benefit loss with index tie-breaks — which is what
// keeps the incremental admission path bit-identical to a
// from-scratch Decide.
//
// The pools live in a poolLedger built once from the repaired
// choices: a candidate move is judged by its exact delta on the at
// most four pools it touches (old and new server, old and new group)
// instead of by re-accumulating every pool, and each committed reroute
// or downgrade is applied to the running account. The verdicts are
// exact, and the pools a move does not touch keep their account, so
// the decisions stay bit-identical to the from-scratch pass kept in
// fleet_reference_test.go. The returned ledger matches d.Choices and
// serves as the exact-upgrade capacity guard; its loads become the
// decision's ServerLoads. t3 holds the Theorem-3 total of d.Choices
// and follows every reroute and downgrade by its delta, so no step
// re-sums the vector.
func repairFleetDecision(d *Decision, f fleet.Fleet, caches []taskCache, t3 *theorem3Sum) (*poolLedger, error) {
	if err := repairDecision(d, t3); err != nil {
		return nil, err
	}
	l := newPoolLedger(f, d.Choices, caches)
	limit := len(l.occ) * (len(l.pts) + len(d.Choices))
	for step := 0; ; step++ {
		if step > limit {
			return nil, fmt.Errorf("core: fleet capacity repair exceeded its bound of %d steps", limit)
		}
		oi := l.firstOver()
		if oi < 0 {
			return l, nil
		}
		if l.rerouteCheapest(d, oi, t3) {
			continue
		}
		idx := cheapestDowngrade(d.Choices, func(i int) bool { return l.contributes(i, oi) })
		if idx < 0 {
			return nil, ErrInfeasible
		}
		downgrade(d, t3, idx)
		l.commit(idx, -1)
		if err := repairDecision(d, t3); err != nil {
			return nil, err
		}
		l.sync(d.Choices) // the Theorem-3 repair may downgrade more
	}
}

// poolLedger is the exact incremental account of a fleet decision's
// capacity pools. It caches, per (choice, point), the pools the point
// routes to and its exact shares, and keeps per pool (servers in fleet
// order, then groups, as fleet.Accumulate) the running dbf.Sum of its
// shares, its task count and its cap. The points' Theorem-3 weights
// are read from the task caches. The task of every choice is fixed
// for the ledger's lifetime; only the chosen points move.
type poolLedger struct {
	f       fleet.Fleet
	tasks   []*task.Task
	caches  []taskCache
	occ     []dbf.Sum  // Σ shares per pool
	count   []int      // offloaded choices per pool
	caps    []dbf.Frac // cap per pool; Den 0: unlimited
	groupOf []int      // server index → its group's pool index, or −1
	start   []int      // choice i's points are pts[start[i]:start[i+1]]
	pts     []poolPoint
	cur     []int // point each choice is accounted at, −1 for local
}

// poolPoint is one (server, budget) point's cached contribution,
// resolved on first use. The zero Frac is no share.
type poolPoint struct {
	ready  bool
	server int      // server pool index, −1 when routed to no fleet server
	group  int      // group pool index, −1 when the server has no group
	occ    dbf.Frac // Ri/Ti, charged to the server pool
	gocc   dbf.Frac // coupling weight · Ri/Ti, charged to the group pool
}

// noShare is the exact zero share of a pool a point does not use.
var noShare = dbf.Frac{Num: 0, Den: 1}

// share returns the point's contribution to pool k: noShare when the
// point (nil: local execution) does not route into k.
func (p *poolPoint) share(k int) dbf.Frac {
	switch {
	case p != nil && k >= 0 && k == p.server:
		return p.occ
	case p != nil && k >= 0 && k == p.group:
		return p.gocc
	}
	return noShare
}

// newPoolLedger accounts the offloaded choices into fresh pools;
// caches holds the choices' task caches, index-aligned.
func newPoolLedger(f fleet.Fleet, choices []Choice, caches []taskCache) *poolLedger {
	ns, np := len(f.Servers), len(f.Servers)+len(f.Groups)
	l := &poolLedger{
		f:       f,
		tasks:   make([]*task.Task, len(choices)),
		caches:  caches,
		occ:     make([]dbf.Sum, np),
		count:   make([]int, np),
		caps:    make([]dbf.Frac, 0, np),
		groupOf: make([]int, ns),
		start:   make([]int, len(choices)+1),
		cur:     make([]int, len(choices)),
	}
	for si, s := range f.Servers {
		l.caps = append(l.caps, dbf.Frac{Num: s.CapNum, Den: s.CapDen})
		l.occ[si].Reset()
		l.groupOf[si] = -1
		for gi, g := range f.Groups {
			if s.Group != "" && g.ID == s.Group {
				l.groupOf[si] = ns + gi
			}
		}
	}
	for gi, g := range f.Groups {
		l.caps = append(l.caps, dbf.Frac{Num: g.CapNum, Den: g.CapDen})
		l.occ[ns+gi].Reset()
	}
	n := 0
	for i, c := range choices {
		l.tasks[i] = c.Task
		l.start[i] = n
		l.cur[i] = -1
		n += len(c.Task.Levels)
	}
	l.start[len(choices)] = n
	l.pts = make([]poolPoint, n)
	l.sync(choices)
	return l
}

// point returns choice i's cached point lv, resolving it on first use.
func (l *poolLedger) point(i, lv int) *poolPoint {
	p := &l.pts[l.start[i]+lv]
	if p.ready {
		return p
	}
	t := l.tasks[i]
	p.ready = true
	p.server, p.group = -1, -1
	if si := l.f.ServerIndex(t.Levels[lv].ServerID); si >= 0 {
		p.server, p.group = si, l.groupOf[si]
		p.occ = dbf.NewFrac(int64(t.Levels[lv].Response), int64(t.Period))
		if p.group >= 0 {
			// fleet.ExpandTask rejected every point whose share overflows.
			p.gocc, _ = l.f.Servers[si].GroupShare(p.occ)
		}
	}
	return p
}

// account adds (sign +1) or removes (sign −1) point p's shares from
// its pools.
func (l *poolLedger) account(p *poolPoint, sign int) {
	for _, k := range [2]int{p.server, p.group} {
		switch {
		case k < 0:
			return // fleet.Accumulate ignores unknown servers too
		case sign > 0:
			l.occ[k].Add(p.share(k))
		default:
			l.occ[k].Sub(p.share(k))
		}
		l.count[k] += sign
	}
}

// commit re-accounts choice i at point lv (−1: local execution): a
// committed reroute, downgrade or exact upgrade.
func (l *poolLedger) commit(i, lv int) {
	if l.cur[i] == lv {
		return
	}
	if l.cur[i] >= 0 {
		l.account(l.point(i, l.cur[i]), -1)
	}
	if lv >= 0 {
		l.account(l.point(i, lv), +1)
	}
	l.cur[i] = lv
}

// sync re-accounts every choice whose point differs from the ledger's.
func (l *poolLedger) sync(choices []Choice) {
	for i, c := range choices {
		l.commit(i, c.point())
	}
}

// over reports whether pool k is capped and over its cap.
func (l *poolLedger) over(k int) bool {
	return l.caps[k].Den != 0 && l.occ[k].Cmp(l.caps[k]) > 0
}

// firstOver returns the index of the first over-capacity pool, or −1
// (fleet.FirstOver on the running account).
func (l *poolLedger) firstOver() int {
	for k := range l.occ {
		if l.over(k) {
			return k
		}
	}
	return -1
}

// loads returns the running account as fleet.Accumulate lays it out,
// each occupancy normalised once.
func (l *poolLedger) loads() []fleet.Load {
	out := make([]fleet.Load, 0, len(l.occ))
	for _, s := range l.f.Servers {
		out = append(out, fleet.Load{Pool: s.ID, Server: true, Capacity: s.Cap()})
	}
	for _, g := range l.f.Groups {
		out = append(out, fleet.Load{Pool: g.ID, Capacity: g.Cap()})
	}
	for k := range out {
		out[k].Tasks, out[k].Occupancy = l.count[k], l.occ[k].Rat()
	}
	return out
}

// contributes reports whether choice i is offloaded into pool k.
func (l *poolLedger) contributes(i, k int) bool {
	if l.cur[i] < 0 {
		return false
	}
	p := l.point(i, l.cur[i])
	return p.server == k || p.group == k
}

// fits reports whether moving a choice from point from (nil: local)
// to point to keeps pool k within its cap, if k is capped: the pool
// loses from's share and gains to's.
func (l *poolLedger) fits(k int, from, to *poolPoint) bool {
	if k < 0 || l.caps[k].Den == 0 {
		return true
	}
	return l.occ[k].CmpAfter(from.share(k), to.share(k), l.caps[k]) <= 0
}

// drains reports whether moving a contributor of the violated pool oi
// from point from to point to strictly decreases oi's occupancy
// without pushing any within-capacity pool over its cap. Pools the
// move does not route into keep their account or drain, so checking
// the target's pools decides exactly what a full re-accumulation
// would; oi drains by the source's full share unless the target
// routes back into it.
func (l *poolLedger) drains(oi int, from, to *poolPoint) bool {
	if to.share(oi).Cmp(from.share(oi)) >= 0 {
		return false
	}
	for _, k := range [2]int{to.server, to.group} {
		if k >= 0 && k != oi && !l.over(k) && !l.fits(k, from, to) {
			return false
		}
	}
	return true
}

// rerouteCheapest moves one choice off the violated pool oi onto the
// alternative point with the smallest expected-benefit loss (ties:
// lower task index, then lower point index). It updates the decision's
// objective, its exact Theorem-3 total t3 and the ledger in place and
// reports whether a qualifying reroute existed.
func (l *poolLedger) rerouteCheapest(d *Decision, oi int, t3 *theorem3Sum) bool {
	bestIdx, bestLv, bestLoss := -1, 0, 0.0
	for i, c := range d.Choices {
		if !l.contributes(i, oi) {
			continue
		}
		ws := l.caches[i].levelW
		from, wFrom := l.point(i, c.Level), ws[c.Level]
		if wFrom.Den == 0 {
			continue
		}
		t := c.Task
		for lv, wTo := range ws {
			if lv == c.Level || wTo.Den == 0 {
				continue // no valid split model: Theorem 3 would reject it
			}
			to := l.point(i, lv)
			// Σ − wFrom + wTo ≤ 1, judged without changing Σ.
			if !l.drains(oi, from, to) || !t3.okAfter(i, lv) {
				continue
			}
			loss := c.Expected - float64(t.EffectiveWeight()*t.Levels[lv].Benefit)
			if bestIdx == -1 || loss < bestLoss {
				bestIdx, bestLv, bestLoss = i, lv, loss
			}
		}
	}
	if bestIdx < 0 {
		return false
	}
	c := &d.Choices[bestIdx]
	t3.move(bestIdx, bestLv)
	d.TotalExpected -= c.Expected
	c.Level = bestLv
	c.Expected = float64(c.Task.EffectiveWeight() * c.Task.Levels[bestLv].Benefit)
	d.TotalExpected += c.Expected
	l.commit(bestIdx, bestLv)
	return true
}

// allows is the exact-upgrade capacity guard: routing choice i to
// point lv is admissible only if every pool stays within its cap. Only
// the target's pools are checked. That is exact because the guarded
// decision is within every pool before each upgrade — the repair
// leaves it so, and every committed upgrade passed this check — and a
// pool the move does not route into keeps its account or drains.
func (l *poolLedger) allows(i, lv int) bool {
	var from *poolPoint
	if l.cur[i] >= 0 {
		from = l.point(i, l.cur[i])
	}
	to := l.point(i, lv)
	return l.fits(to.server, from, to) && l.fits(to.group, from, to)
}
