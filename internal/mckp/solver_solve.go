package mckp

import (
	"errors"
	"math"
	"sort"
)

// sortChildren orders the child permutation for the dominance sweep.
// *coreSearch implements sort.Interface directly so the call never
// boxes (steady-state re-solves stay allocation-free).
func sortChildren(cs *coreSearch) { sort.Sort(cs) }

// maxCoreStates caps the total Pareto states materialized by the core
// sweep. The core is the set of classes the LP relaxation cannot
// decide, and dominance keeps only undominated (weight, profit)
// prefixes of it, so real instances stay far below this; an overrun
// falls back to the best solution seen (which forfeits the warm/cold
// bit-identity guarantee, never feasibility).
const maxCoreStates = 4_000_000

// coreRetryHEU is the core size past which a warm solve whose floor
// came from the previous-optimum hint spends one HEU run trying to
// raise the floor before sweeping.
const coreRetryHEU = 32

// maxSuffixEntries bounds the flattened per-depth suffix upgrade
// lists. Deeper (smaller) suffixes are built exactly within this
// budget; shallower depths fall back to the full core upgrade list — a
// superset, hence still a valid (just looser) LP bound. This is what
// keeps the solver's memory O(core²) instead of SolveBnB's O(n²·m).
const maxSuffixEntries = 1 << 19

// coreSearch is the core-sweep arena: core identification, suffix LP
// bound tables, the Pareto state pool, and the best leaf found.
// Everything is reused across solves.
type coreSearch struct {
	inCore  []bool
	coreIdx []int

	// Math (non-canonical) suffix sums used only for pruning bounds:
	// fixedSuf* over fixed classes by class index; coreBase* over core
	// classes by core depth (each core class at its lightest item);
	// sufAll* over every class at its dual-best item, powering the
	// progressive feasible-completion floor.
	fixedSufP []float64
	fixedSufW []float64
	coreBaseP []float64
	coreBaseW []float64
	sufAllP   []float64
	sufAllW   []float64

	// Per-depth merged suffix upgrade lists (eff desc), flattened:
	// depth k ∈ [kStop, K] occupies raw*[segOff[k]:segOff[k]+segCnt[k]]
	// and prefix arrays cum*[cumOff[k]:cumOff[k]+segCnt[k]+1]. Depths
	// below kStop use fullCum* (all core upgrades).
	segOff, segCnt, cumOff []int
	rawDW, rawDP, rawEff   []float64
	cumW, cumP             []float64
	fullCumW, fullCumP     []float64
	kStop                  int

	// Lagrangian suffix bounds at the LP's break efficiency lambda:
	// lagSuf[k] = Σ (lpP − λ·lpW) over core depths ≥ k, so
	// lagSuf[k] + λ·rem bounds the suffix LP in O(1). lagSlack is the
	// pruning slack, twice eps plus the float error of those sums;
	// lagOn is false when the bound does not hold (allCore) or is not
	// finite.
	lagSuf   []float64
	lambda   float64
	lagSlack float64
	lagOn    bool

	// Pareto state pool, flat across levels. A level-k state is an
	// undominated canonical prefix through every class before
	// coreIdx[k]; stItem is the original item index chosen at the
	// previous core class, stParent the index of the previous level's
	// state. Level 0 is the single root. Array order within a level is
	// generation order, which is the canonical lexicographic order of
	// the prefix paths — load-bearing for tie-breaking (see Solver).
	stW, stP []float64
	stParent []int32
	stItem   []int32

	// Child scratch for one level transition.
	chW, chP []float64
	chParent []int32
	chItem   []int32
	chIdx    []int // sort permutation for the dominance sweep
	chKeep   []bool

	inc        []int // incumbent choice vector (warm hint or HEU)
	bestChoice []int
	bestProfit float64
	bestWeight float64
	found      bool
	ell        float64 // incumbent canonical profit (initial pruning floor)
	floorLB    float64 // best feasible-completion lower bound seen
	eps        float64 // pruning/fixing slack, scaled to profit mass
	states     int
	aborted    bool
}

// sort.Interface over chIdx: weight asc, profit desc, generation
// order asc — the skyline order for the dominance sweep.
func (cs *coreSearch) Len() int { return len(cs.chIdx) }
func (cs *coreSearch) Less(a, b int) bool {
	i, j := cs.chIdx[a], cs.chIdx[b]
	if cs.chW[i] != cs.chW[j] {
		return cs.chW[i] < cs.chW[j]
	}
	if cs.chP[i] != cs.chP[j] {
		return cs.chP[i] > cs.chP[j]
	}
	return i < j
}
func (cs *coreSearch) Swap(a, b int) { cs.chIdx[a], cs.chIdx[b] = cs.chIdx[b], cs.chIdx[a] }

// Solve returns the exact optimum of the current instance via the
// core method. The returned Solution's Choice aliases solver storage,
// valid until the next call. See the Solver doc comment for the
// canonicality (warm/cold bit-identity) contract.
//
//rtlint:hotpath -- steady-state offloading re-decision kernel; warm re-solves must not allocate
func (s *Solver) Solve() (Solution, error) {
	n := len(s.classes)
	if n == 0 {
		return Solution{}, errors.New("mckp: no classes") //rtlint:allow hotalloc -- empty-instance error, not the steady state
	}

	// Feasibility: the all-lightest assignment must fit (same canonical
	// accumulation order and tolerance as Instance.Feasible).
	minSum := 0.0
	for i := range s.classes {
		minSum += s.classes[i].minW
	}
	if minSum > s.capacity+1e-12 {
		return Solution{}, ErrInfeasible
	}
	if !s.upsValid {
		s.buildUps() //rtlint:allow hotalloc -- lazy cold rebuild of the upgrade pool after Reset; warm re-solves skip it
	}

	// Epsilon slack scaled to the instance's profit mass, so duality
	// and accumulation float error can never prune a true achiever.
	scale := 1.0
	for i := range s.classes {
		scale += s.classes[i].maxAbsP
	}
	eps := 1e-9 + float64(3e-11*scale)

	lambda, dual, allCore := s.solveLP()
	s.scanPhi(lambda)

	cs := &s.srch
	cs.inc = growInts(cs.inc, n)
	cs.bestChoice = growInts(cs.bestChoice, n)

	// Incumbent: the previous optimum when still valid and feasible,
	// else the pool-scan HEU. Its canonical profit ℓ is the
	// warm-start pruning floor; the vector itself is only a fallback.
	ranHEU, err := s.pickIncumbent()
	if err != nil {
		return Solution{}, err
	}

	cs.inCore = growBools(cs.inCore, n)
	s.buildCore(dual, eps, allCore)
	// A warm hint that leaves a large core may have gone stale across
	// edits; one HEU run often raises the floor enough to shrink it.
	if !ranHEU && len(cs.coreIdx) > coreRetryHEU {
		if err := s.raiseFloorHEU(); err != nil {
			return Solution{}, err
		}
		s.buildCore(dual, eps, allCore)
	}

	s.buildFixedSuffixes()
	s.buildCoreBounds()
	s.buildLagrangian(lambda, eps, allCore)

	cs.bestProfit = math.Inf(-1)
	cs.bestWeight = 0
	cs.found = false
	cs.eps = eps
	cs.states = 0
	cs.aborted = false

	if len(cs.coreIdx) == 0 {
		// Everything fixed: the dual-best assignment is the unique
		// candidate (and equals the incumbent, which certifies it).
		p, w := 0.0, 0.0
		for c := 0; c < n; c++ {
			p += s.lp.lpP[c]
			w += s.lp.lpW[c]
		}
		if w <= s.capacity+1e-12 {
			cs.found = true
			cs.bestProfit = p
			cs.bestWeight = w
			copy(cs.bestChoice, s.lp.lpItem)
		}
	} else {
		s.sweepCore()
	}

	choice := cs.bestChoice
	profit, weight := cs.bestProfit, cs.bestWeight
	if !cs.found {
		// Defensive: the incumbent's states are never pruned or
		// dominated away without an equal-profit survivor, so this only
		// triggers on a state-cap abort.
		var err error
		choice = cs.inc
		profit, weight, err = s.evalInto(cs.inc)
		if err != nil {
			return Solution{}, err
		}
	}

	s.prevChoice = append(s.prevChoice[:0], choice...)
	s.prevValid = true
	s.solChoice = append(s.solChoice[:0], choice...)
	return Solution{Choice: s.solChoice, Profit: profit, Weight: weight}, nil
}

// solveLP runs the Zemel/Dyer greedy over the global upgrade pool:
// start every class at its lightest hull item, apply upgrades in
// global efficiency order until one no longer fits. Returns the dual
// multiplier λ (the break efficiency), the dual bound D = LP profit +
// λ·residual, and whether the hairline no-slack case forces the whole
// instance into the core. Fills s.lp.lpPos.
func (s *Solver) solveLP() (lambda, dual float64, allCore bool) {
	lp := &s.lp
	n := len(s.classes)
	lp.lpPos = growInts(lp.lpPos, n)
	lp.lpItem = growInts(lp.lpItem, n)
	lp.lpW = growFloats(lp.lpW, n)
	lp.lpP = growFloats(lp.lpP, n)
	lp.phiGap = growFloats(lp.phiGap, n)

	profit, weight := 0.0, 0.0
	for i := range s.classes {
		lp.lpPos[i] = 0
		f0 := s.classes[i].lpFront[0]
		profit += f0.profit
		weight += f0.weight
	}
	rem := s.capacity - weight
	if rem < 0 {
		// Inside the feasibility tolerance band but with no true slack:
		// the duality argument has no room, so skip fixing entirely.
		return 0, profit, true
	}
	for _, u := range s.ups {
		if u.dw > rem {
			lambda = u.eff
			break
		}
		rem -= u.dw
		profit += u.dp
		lp.lpPos[u.class] = u.pos
	}
	return lambda, profit + float64(lambda*rem), false
}

// buildCore applies reduced-cost fixing with the current floor ℓ: a
// class whose φ gap exceeds the optimality gap D−ℓ (plus slack) must
// take its dual-best item in every solution at least as good as the
// incumbent; the rest is the core.
func (s *Solver) buildCore(dual, eps float64, allCore bool) {
	cs := &s.srch
	gap := dual - cs.ell
	if gap < 0 {
		gap = 0
	}
	cs.coreIdx = cs.coreIdx[:0]
	for i := range s.classes {
		in := allCore || !(s.lp.phiGap[i] > gap+eps)
		cs.inCore[i] = in
		if in {
			cs.coreIdx = append(cs.coreIdx, i)
		}
	}
}

// scanPhi records, per class, the dual-best item (the φ-argmax at the
// given λ, attained at the greedy hull position) and the gap to the
// second-best pseudo-profit over the whole IP frontier. Single-item
// classes get a +Inf gap (always fixed).
func (s *Solver) scanPhi(lambda float64) {
	lp := &s.lp
	for i := range s.classes {
		sc := &s.classes[i]
		b := sc.lpFront[lp.lpPos[i]]
		phiBest := b.profit - float64(lambda*b.weight)
		second := math.Inf(-1)
		for _, it := range sc.ipFront {
			if it.idx == b.idx {
				continue
			}
			if phi := it.profit - float64(lambda*it.weight); phi > second {
				second = phi
			}
		}
		lp.lpItem[i] = b.idx
		lp.lpW[i] = b.weight
		lp.lpP[i] = b.profit
		lp.phiGap[i] = phiBest - second
	}
}

// pickIncumbent fills s.srch.inc and its canonical profit s.srch.ell:
// the warm-start hint (the previous optimum, index-adjusted across
// edits — after a small edit usually a near-optimal floor, which is
// what shrinks the warm core) when valid, else the pool-scan
// HEU. Returns whether the HEU was run (so Solve can lazily try it as
// a better floor only when the hint leaves a large core, instead of
// paying the O(n + U) greedy on every warm re-solve).
func (s *Solver) pickIncumbent() (ranHEU bool, err error) {
	cs := &s.srch
	n := len(s.classes)
	cs.ell = math.Inf(-1)
	if s.prevValid && len(s.prevChoice) == n {
		if p, w, err := s.evalInto(s.prevChoice); err == nil && w <= s.capacity+1e-12 {
			copy(cs.inc, s.prevChoice)
			cs.ell = p
			return false, nil
		}
	}
	if err := s.raiseFloorHEU(); err != nil {
		return true, err
	}
	return true, nil
}

// raiseFloorHEU runs the pool-scan HEU and, when it beats the
// current incumbent, promotes it to s.srch.inc / s.srch.ell. With no
// incumbent yet (cold solve), it is the incumbent.
func (s *Solver) raiseFloorHEU() error {
	cs := &s.srch
	if !s.heuRun() {
		if cs.ell > math.Inf(-1) {
			return nil // keep the existing incumbent
		}
		return ErrInfeasible
	}
	p, _, err := s.evalInto(s.heu.choice)
	if err != nil {
		return err
	}
	if p > cs.ell {
		copy(cs.inc, s.heu.choice)
		cs.ell = p
	}
	return nil
}

// buildFixedSuffixes fills fixedSufP/W[c] = Σ of dual-best profit /
// weight over fixed classes with index ≥ c, and sufAllP/W[c] = the
// same sums over every class ≥ c (math sums, pruning only).
func (s *Solver) buildFixedSuffixes() {
	cs := &s.srch
	n := len(s.classes)
	cs.fixedSufP = growFloats(cs.fixedSufP, n+1)
	cs.fixedSufW = growFloats(cs.fixedSufW, n+1)
	cs.sufAllP = growFloats(cs.sufAllP, n+1)
	cs.sufAllW = growFloats(cs.sufAllW, n+1)
	cs.fixedSufP[n] = 0
	cs.fixedSufW[n] = 0
	cs.sufAllP[n] = 0
	cs.sufAllW[n] = 0
	for c := n - 1; c >= 0; c-- {
		p, w := cs.fixedSufP[c+1], cs.fixedSufW[c+1]
		if !cs.inCore[c] {
			p += s.lp.lpP[c]
			w += s.lp.lpW[c]
		}
		cs.fixedSufP[c] = p
		cs.fixedSufW[c] = w
		cs.sufAllP[c] = cs.sufAllP[c+1] + s.lp.lpP[c]
		cs.sufAllW[c] = cs.sufAllW[c+1] + s.lp.lpW[c]
	}
}

// buildCoreBounds prepares the suffix LP bound tables over the core:
// base (lightest-item) suffix sums, exact merged upgrade lists per
// depth within the maxSuffixEntries budget, and the full-core list
// used as a superset bound for shallower depths.
func (s *Solver) buildCoreBounds() {
	cs := &s.srch
	K := len(cs.coreIdx)
	cs.coreBaseP = growFloats(cs.coreBaseP, K+1)
	cs.coreBaseW = growFloats(cs.coreBaseW, K+1)
	cs.coreBaseP[K] = 0
	cs.coreBaseW[K] = 0
	for k := K - 1; k >= 0; k-- {
		sc := &s.classes[cs.coreIdx[k]]
		cs.coreBaseP[k] = cs.coreBaseP[k+1] + sc.lpFront[0].profit
		cs.coreBaseW[k] = cs.coreBaseW[k+1] + sc.minW
	}

	cs.segOff = growInts(cs.segOff, K+1)
	cs.segCnt = growInts(cs.segCnt, K+1)
	cs.cumOff = growInts(cs.cumOff, K+1)
	cs.rawDW = cs.rawDW[:0]
	cs.rawDP = cs.rawDP[:0]
	cs.rawEff = cs.rawEff[:0]
	cs.cumW = cs.cumW[:0]
	cs.cumP = cs.cumP[:0]

	// Depth K: empty suffix.
	cs.segOff[K] = 0
	cs.segCnt[K] = 0
	cs.cumOff[K] = 0
	cs.cumW = append(cs.cumW, 0)
	cs.cumP = append(cs.cumP, 0)
	kStop := K
	for k := K - 1; k >= 0; k-- {
		ci := cs.coreIdx[k]
		clsUps := len(s.classes[ci].lpFront) - 1
		newCnt := cs.segCnt[k+1] + clsUps
		if len(cs.rawDW)+newCnt > maxSuffixEntries {
			break
		}
		off := len(cs.rawDW)
		prevOff, prevCnt := cs.segOff[k+1], cs.segCnt[k+1]
		j := 1
		cu, hasCu := s.classUpgradeAt(ci, j)
		pi := 0
		for pi < prevCnt || hasCu {
			if hasCu && (pi >= prevCnt || cu.eff > cs.rawEff[prevOff+pi]) {
				cs.rawDW = append(cs.rawDW, cu.dw)
				cs.rawDP = append(cs.rawDP, cu.dp)
				cs.rawEff = append(cs.rawEff, cu.eff)
				j++
				cu, hasCu = s.classUpgradeAt(ci, j)
			} else {
				cs.rawDW = append(cs.rawDW, cs.rawDW[prevOff+pi])
				cs.rawDP = append(cs.rawDP, cs.rawDP[prevOff+pi])
				cs.rawEff = append(cs.rawEff, cs.rawEff[prevOff+pi])
				pi++
			}
		}
		cs.segOff[k] = off
		cs.segCnt[k] = newCnt
		cs.cumOff[k] = len(cs.cumW)
		cs.cumW = append(cs.cumW, 0)
		cs.cumP = append(cs.cumP, 0)
		accW, accP := 0.0, 0.0
		for t := 0; t < newCnt; t++ {
			accW += cs.rawDW[off+t]
			accP += cs.rawDP[off+t]
			cs.cumW = append(cs.cumW, accW)
			cs.cumP = append(cs.cumP, accP)
		}
		kStop = k
	}
	cs.kStop = kStop

	cs.fullCumW = append(cs.fullCumW[:0], 0)
	cs.fullCumP = append(cs.fullCumP[:0], 0)
	if kStop > 0 {
		accW, accP := 0.0, 0.0
		for _, u := range s.ups {
			if !cs.inCore[u.class] {
				continue
			}
			accW += u.dw
			accP += u.dp
			cs.fullCumW = append(cs.fullCumW, accW)
			cs.fullCumP = append(cs.fullCumP, accP)
		}
	}
}

// buildLagrangian fills the O(1) screen in front of ubCore. For any
// λ ≥ 0 and suffix of core classes, Σ_c max_x (p − λ·w) + λ·rem bounds
// the suffix's LP optimum within residual capacity rem from above
// (weak duality), and at the LP's own break efficiency the dual-best
// item attains each class's max over its whole IP frontier. The
// screen is off when solveLP found no slack (allCore: the positions
// are then not dual-best) and when λ or a sum is not finite.
func (s *Solver) buildLagrangian(lambda, eps float64, allCore bool) {
	cs := &s.srch
	K := len(cs.coreIdx)
	cs.lagOn = false
	if allCore || !(lambda >= 0) {
		return
	}
	cs.lagSuf = growFloats(cs.lagSuf, K+1)
	cs.lagSuf[K] = 0
	// mag bounds the magnitude of every term a screened bound adds, so
	// (K+4)·2⁻⁵⁰·mag covers its float rounding generously.
	mag := float64(lambda * s.capacity)
	for k := K - 1; k >= 0; k-- {
		c := cs.coreIdx[k]
		lw := float64(lambda * s.lp.lpW[c])
		cs.lagSuf[k] = cs.lagSuf[k+1] + (s.lp.lpP[c] - lw)
		mag += math.Abs(s.lp.lpP[c]) + lw
	}
	rel := float64(K+4) * 0x1p-50
	slack := float64(2*eps) + float64(rel*mag)
	if math.IsInf(slack, 0) || math.IsNaN(slack) || math.IsInf(cs.lagSuf[0], 0) || math.IsNaN(cs.lagSuf[0]) {
		return
	}
	cs.lambda, cs.lagSlack, cs.lagOn = lambda, slack, true
}

// ubCore returns an upper bound on the profit attainable by core
// classes at depths ≥ k within residual capacity rem: every class at
// its lightest hull item plus the greedy fractional fill over the
// suffix upgrade list (exact for k ≥ kStop, superset otherwise).
func (cs *coreSearch) ubCore(k int, rem float64) float64 {
	rem -= cs.coreBaseW[k]
	if rem < 0 {
		return math.Inf(-1)
	}
	var cw, cp []float64
	if k >= cs.kStop {
		o, l := cs.cumOff[k], cs.segCnt[k]+1
		cw, cp = cs.cumW[o:o+l], cs.cumP[o:o+l]
	} else {
		cw, cp = cs.fullCumW, cs.fullCumP
	}
	lo, hi := 0, len(cw)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if cw[mid] <= rem {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	profit := cs.coreBaseP[k] + cp[lo]
	if lo+1 < len(cw) {
		dw := cw[lo+1] - cw[lo]
		dp := cp[lo+1] - cp[lo]
		if frac := rem - cw[lo]; frac > 0 && dw > 0 {
			profit += dp * frac / dw
		}
	}
	return profit
}

// sweepCore runs the dominance-based sweep over the core classes in
// ascending class order (Pisinger's MCKNAP scheme adapted to real
// weights): level k holds the Pareto-undominated canonical prefixes
// through every class before coreIdx[k]. Each level branches one core
// class over its IP frontier, extends each prefix element-wise through
// the fixed classes up to the next core class (canonical accumulation
// — identical float rounding on identical paths regardless of which
// classes happen to be in the core), prunes by the lightest-completion
// weight and the suffix LP bound against the incumbent floor ℓ, and
// collapses the survivors to the (weight, profit) skyline.
//
// Dominance keeps bit-identity intact: a state can only be discarded
// in favour of one with strictly higher canonical profit at no more
// weight (then the discarded state achieves less than the optimum
// wherever the keeper is feasible), equal profit at strictly less
// weight, or an identical (weight, profit) pair on a lexicographically
// earlier path — in every case the surviving choice is a function of
// the instance alone, not of the incumbent or the core composition.
func (s *Solver) sweepCore() {
	cs := &s.srch
	n := len(s.classes)
	K := len(cs.coreIdx)

	cs.stW = cs.stW[:0]
	cs.stP = cs.stP[:0]
	cs.stParent = cs.stParent[:0]
	cs.stItem = cs.stItem[:0]

	// Root: canonical prefix over the fixed classes before the first
	// core class.
	p0, w0 := 0.0, 0.0
	for c := 0; c < cs.coreIdx[0]; c++ {
		p0 += s.lp.lpP[c]
		w0 += s.lp.lpW[c]
	}
	cs.stW = append(cs.stW, w0)
	cs.stP = append(cs.stP, p0)
	cs.stParent = append(cs.stParent, -1)
	cs.stItem = append(cs.stItem, -1)

	// Progressive floor: any prefix whose all-dual-best completion
	// fits (with a margin dominating float slop) is a feasible integer
	// solution, so its math profit is a valid lower bound ≤ the
	// optimum; pruning against it can never cut an achiever. Seed it
	// with the root's completion.
	cs.floorLB = math.Inf(-1)
	if w0+cs.sufAllW[cs.coreIdx[0]] <= s.capacity-1e-9 {
		cs.floorLB = p0 + cs.sufAllP[cs.coreIdx[0]]
	}

	bestParent, bestItem := -1, -1
	lo, hi := 0, 1
	for k := 0; k < K; k++ {
		ci := cs.coreIdx[k]
		front := s.classes[ci].ipFront
		nci := n
		if k+1 < K {
			nci = cs.coreIdx[k+1]
		}
		last := k+1 == K

		cs.chW = cs.chW[:0]
		cs.chP = cs.chP[:0]
		cs.chParent = cs.chParent[:0]
		cs.chItem = cs.chItem[:0]
		for si := lo; si < hi; si++ {
			pw, pp := cs.stW[si], cs.stP[si]
			for fi := range front {
				it := &front[fi]
				w1 := pw + it.weight
				// Lightest-completion weight guard. The frontier is
				// weight-ascending, so the first failure ends the class.
				if w1+cs.fixedSufW[ci+1]+cs.coreBaseW[k+1] > s.capacity+1e-9 {
					break
				}
				p1 := pp + it.profit
				floor := cs.ell
				if cs.floorLB > floor {
					floor = cs.floorLB
				}
				if cs.bestProfit > floor {
					floor = cs.bestProfit
				}
				// Suffix LP bound against the floor (ℓ-slack pruning
				// never cuts an achiever of the final maximum), first
				// the O(1) Lagrangian bound, which is never below the
				// suffix's LP optimum.
				rem := s.capacity - w1 - cs.fixedSufW[ci+1]
				if cs.lagOn && p1+cs.fixedSufP[ci+1]+cs.lagSuf[k+1]+float64(cs.lambda*rem) < floor-cs.lagSlack {
					continue
				}
				ub := cs.ubCore(k+1, rem)
				if p1+cs.fixedSufP[ci+1]+ub < floor-cs.eps {
					continue
				}
				// Canonical element-wise extension through the fixed
				// classes before the next core class (or the tail).
				for c := ci + 1; c < nci; c++ {
					p1 += s.lp.lpP[c]
					w1 += s.lp.lpW[c]
				}
				if last {
					// Leaf: canonical acceptance, strict improvement
					// only, generation order = lexicographic order.
					if w1 <= s.capacity+1e-12 && p1 > cs.bestProfit {
						cs.bestProfit = p1
						cs.bestWeight = w1
						cs.found = true
						bestParent, bestItem = si, it.idx
					}
					continue
				}
				if w1+cs.sufAllW[nci] <= s.capacity-1e-9 {
					if lb := p1 + cs.sufAllP[nci]; lb > cs.floorLB {
						cs.floorLB = lb
					}
				}
				cs.chW = append(cs.chW, w1)
				cs.chP = append(cs.chP, p1)
				cs.chParent = append(cs.chParent, int32(si))
				cs.chItem = append(cs.chItem, int32(it.idx))
			}
		}
		if last {
			break
		}
		nCh := len(cs.chW)
		if cs.states+nCh > maxCoreStates {
			cs.aborted = true
			return
		}
		if nCh == 0 {
			// No feasible-looking extension survives; the incumbent
			// fallback in Solve covers this (it can only happen when
			// the floor already equals the optimum).
			return
		}
		// Dominance sweep: sort a permutation by (weight asc, profit
		// desc, generation asc) and keep the strict profit skyline.
		cs.chIdx = growInts(cs.chIdx, nCh)
		cs.chKeep = growBools(cs.chKeep, nCh)
		for i := 0; i < nCh; i++ {
			cs.chIdx[i] = i
			cs.chKeep[i] = false
		}
		sortChildren(cs)
		bestP := math.Inf(-1)
		for _, idx := range cs.chIdx {
			if cs.chP[idx] > bestP {
				cs.chKeep[idx] = true
				bestP = cs.chP[idx]
			}
		}
		// Append survivors in generation order, preserving the
		// lexicographic invariant for the next level.
		lo = len(cs.stW)
		for i := 0; i < nCh; i++ {
			if !cs.chKeep[i] {
				continue
			}
			cs.stW = append(cs.stW, cs.chW[i])
			cs.stP = append(cs.stP, cs.chP[i])
			cs.stParent = append(cs.stParent, cs.chParent[i])
			cs.stItem = append(cs.stItem, cs.chItem[i])
		}
		hi = len(cs.stW)
		cs.states = hi
	}

	if !cs.found {
		return
	}
	// Reconstruct the best leaf: fixed classes take their dual-best
	// item, core classes walk the parent chain.
	for c := 0; c < n; c++ {
		if !cs.inCore[c] {
			cs.bestChoice[c] = s.lp.lpItem[c]
		}
	}
	cs.bestChoice[cs.coreIdx[K-1]] = bestItem
	si := bestParent
	for level := K - 1; level > 0; level-- {
		cs.bestChoice[cs.coreIdx[level-1]] = int(cs.stItem[si])
		si = int(cs.stParent[si])
	}
}
