package mckp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Solver is a persistent, incremental, exact MCKP solver implementing
// the Dudzinski–Walukiewicz core method the paper cites for its
// offloading decision manager:
//
//  1. per class, the IP-dominance frontier and LP frontier (upper
//     convex hull) are cached and recomputed only for classes that
//     change — mirroring dbf.Analyzer's O(1) swap pattern;
//  2. every Solve runs the LP relaxation by the Zemel/Dyer greedy over
//     a globally efficiency-sorted upgrade pool (maintained
//     incrementally across class edits by filtered merges), yielding
//     the dual multiplier λ and dual bound D;
//  3. classes whose pseudo-profit gap φ̂ᵢ − φᵢ(second best) exceeds
//     the optimality gap D − incumbent are *fixed* to their dual-best
//     item (reduced-cost fixing); the rest form the core;
//  4. a dominance-based sweep restricted to the core (Pisinger's
//     MCKNAP scheme adapted to real-valued weights) finds the
//     optimum: core classes are merged one at a time into a Pareto
//     frontier of (weight, profit) prefixes, pruned by suffix LP
//     bounds over merged core upgrade lists. All search state lives
//     in reused arenas, so steady-state re-solves are allocation-free.
//
// The sweep is *canonical*: core classes are processed in ascending
// class order with profit and weight accumulated element-wise in
// class-index order along each path (identical float rounding on
// identical paths, however the core is composed), the best leaf is
// replaced only on strictly greater canonical profit, pruning
// thresholds carry an eps slack scaled to the instance's profit mass
// so no potential achiever of the final maximum is ever cut, and
// dominance discards a prefix only for a strictly better one, a
// lighter equal-profit one, or an identical (weight, profit) pair on
// a lexicographically earlier path. The previous optimum is used
// purely as a warm-start lower bound for pruning, which cannot change
// the returned argmax — so an incremental re-solve returns a Solution
// bit-identical to a from-scratch solve of the same instance (choice
// vector, profit, and weight), as the differential fuzz target
// FuzzMCKPSolverAgreement checks. The lone exception is a sweep that
// overruns maxCoreStates, which falls back to the best solution seen;
// real offloading instances stay orders of magnitude below the cap.
//
// A Solver is not safe for concurrent use.
type Solver struct {
	capacity float64
	classes  []solverClass

	// Materialized instance view, refreshed on every mutation; handed
	// to the quantized DP and to the cold solvers (SolveBnB and
	// friends).
	view Instance

	// Global upgrade pool sorted by (eff desc, class asc, pos asc),
	// built lazily on the first Solve and maintained incrementally by
	// O(|ups|) filtered merges on class edits. ups and upsTmp are a
	// double buffer: merges write into the spare and swap.
	//
	//rtlint:arena
	ups []solverUpgrade
	//rtlint:arena
	upsTmp   []solverUpgrade
	upsValid bool

	// Warm-start hint: the choice vector of the previous optimum,
	// index-adjusted across structural edits. Used only as an initial
	// pruning bound, never as the returned answer.
	prevChoice []int
	prevValid  bool

	//rtlint:arena
	lp lpScratch
	//rtlint:arena
	srch coreSearch
	//rtlint:arena
	heu heuScratch
	//rtlint:arena
	dp dpArena

	solChoice []int // storage behind the returned Solution.Choice
}

// solverClass caches the per-class preprocessing.
type solverClass struct {
	label   string
	items   []Item
	ipFront []frontierItem // IP-dominance frontier (weight asc)
	lpFront []frontierItem // convex-hull subset of ipFront
	minW    float64        // lightest item weight (= lpFront[0].weight)
	maxAbsP float64        // max |profit| over items, for eps scaling
}

// solverUpgrade is one hull step of one class in the global pool.
type solverUpgrade struct {
	class, pos int
	dw, dp     float64
	eff        float64
}

func upLess(a, b solverUpgrade) bool {
	if a.eff != b.eff {
		return a.eff > b.eff
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.pos < b.pos
}

type upSlice []solverUpgrade

func (s upSlice) Len() int           { return len(s) }
func (s upSlice) Less(i, j int) bool { return upLess(s[i], s[j]) }
func (s upSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// lpScratch holds the per-solve LP/dual state (sized to the class
// count, reused).
type lpScratch struct {
	lpPos  []int     // greedy hull position per class
	lpItem []int     // dual-best item index per class (φ-argmax)
	lpW    []float64 // weight of that item
	lpP    []float64 // profit of that item
	phiGap []float64 // φ̂ − second-best φ; +Inf for single-item classes
}

// heuScratch holds the HEU pass state per class: whether an upgrade
// that did not fit has closed it, and the chosen item index.
type heuScratch struct {
	closed []bool
	choice []int
}

// NewSolverFrom builds a Solver preloaded with in's classes. The items
// are copied; in is not retained.
func NewSolverFrom(in *Instance) (*Solver, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{capacity: in.Capacity}
	s.classes = make([]solverClass, len(in.Classes))
	for i, c := range in.Classes {
		s.classes[i].set(c.Label, c.Items)
	}
	s.refreshViews()
	return s, nil
}

// Len returns the number of classes.
func (s *Solver) Len() int { return len(s.classes) }

// Instance returns a read-only view of the solver's current instance.
// The view aliases internal buffers: it is valid until the next
// mutating call and must not be modified.
func (s *Solver) Instance() *Instance { return &s.view }

// Reset removes all classes, keeping allocated scratch for reuse.
func (s *Solver) Reset() {
	s.classes = s.classes[:0]
	s.ups = s.ups[:0]
	s.upsValid = false
	s.prevChoice = s.prevChoice[:0]
	s.prevValid = false
	s.refreshViews()
}

// Append adds a class at index Len().
func (s *Solver) Append(c Class) error {
	if err := validateClass(len(s.classes), c.Label, c.Items); err != nil {
		return err
	}
	if len(s.classes) < cap(s.classes) {
		// Reslice instead of append so a slot recycled by Remove keeps
		// its buffers for set() to reuse.
		s.classes = s.classes[:len(s.classes)+1]
	} else {
		s.classes = append(s.classes, solverClass{})
	}
	s.classes[len(s.classes)-1].set(c.Label, c.Items)
	if s.upsValid {
		s.mergeClassUps(len(s.classes) - 1)
	}
	if s.prevValid {
		// Extend the hint with the new class's lightest item.
		s.prevChoice = append(s.prevChoice, s.classes[len(s.classes)-1].ipFront[0].idx)
	}
	s.refreshViews()
	return nil
}

// Insert adds a class at index i, shifting later classes up.
func (s *Solver) Insert(i int, c Class) error {
	if i < 0 || i > len(s.classes) {
		return fmt.Errorf("mckp: insert index %d out of range [0,%d]", i, len(s.classes))
	}
	if err := validateClass(i, c.Label, c.Items); err != nil {
		return err
	}
	s.classes = append(s.classes, solverClass{})
	copy(s.classes[i+1:], s.classes[i:])
	s.classes[i] = solverClass{}
	s.classes[i].set(c.Label, c.Items)
	if s.upsValid {
		s.insertClassUps(i)
	}
	if s.prevValid {
		s.prevChoice = append(s.prevChoice, 0)
		copy(s.prevChoice[i+1:], s.prevChoice[i:])
		s.prevChoice[i] = s.classes[i].ipFront[0].idx
	}
	s.refreshViews()
	return nil
}

// Remove deletes class i, shifting later classes down.
func (s *Solver) Remove(i int) error {
	if i < 0 || i >= len(s.classes) {
		return fmt.Errorf("mckp: remove index %d out of range [0,%d)", i, len(s.classes))
	}
	// Recycle the removed class's buffers at the tail slot.
	removed := s.classes[i]
	copy(s.classes[i:], s.classes[i+1:])
	s.classes[len(s.classes)-1] = removed
	s.classes = s.classes[:len(s.classes)-1]
	if s.upsValid {
		s.removeClassUps(i)
	}
	if s.prevValid {
		s.prevChoice = append(s.prevChoice[:i], s.prevChoice[i+1:]...)
	}
	s.refreshViews()
	return nil
}

// Swap replaces class i wholesale (label and items).
func (s *Solver) Swap(i int, c Class) error {
	if i < 0 || i >= len(s.classes) {
		return fmt.Errorf("mckp: swap index %d out of range [0,%d)", i, len(s.classes))
	}
	if err := validateClass(i, c.Label, c.Items); err != nil {
		return err
	}
	s.classes[i].set(c.Label, c.Items)
	if s.upsValid {
		s.mergeClassUps(i)
	}
	if s.prevValid && s.prevChoice[i] >= len(c.Items) {
		s.prevChoice[i] = s.classes[i].ipFront[0].idx
	}
	s.refreshViews()
	return nil
}

// validateClass mirrors Instance.Validate's per-class checks.
func validateClass(i int, label string, items []Item) error {
	if len(items) == 0 {
		return fmt.Errorf("mckp: class %d (%s) has no items", i, label)
	}
	for j, it := range items {
		if it.Weight < 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return fmt.Errorf("mckp: class %d item %d has invalid weight %g", i, j, it.Weight)
		}
		if math.IsNaN(it.Profit) || math.IsInf(it.Profit, 0) {
			return fmt.Errorf("mckp: class %d item %d has invalid profit %g", i, j, it.Profit)
		}
	}
	return nil
}

// set recomputes the class's cached preprocessing from items, reusing
// the class's own buffers.
func (sc *solverClass) set(label string, items []Item) {
	sc.label = label
	sc.items = append(sc.items[:0], items...)
	sc.ipFront = ipFrontierInto(sc.ipFront, sc.items)
	sc.lpFront = lpFrontierInto(sc.lpFront[:0], sc.ipFront)
	sc.minW = sc.lpFront[0].weight
	maxAbs := 0.0
	for _, it := range sc.items {
		if a := math.Abs(it.Profit); a > maxAbs {
			maxAbs = a
		}
	}
	sc.maxAbsP = maxAbs
}

// refreshViews rebuilds the materialized Instance view (O(n) pointer
// copies, no allocation at steady state).
func (s *Solver) refreshViews() {
	s.view.Capacity = s.capacity
	s.view.Classes = s.view.Classes[:0]
	for i := range s.classes {
		sc := &s.classes[i]
		s.view.Classes = append(s.view.Classes, Class{Label: sc.label, Items: sc.items})
	}
}

// classUpgradeAt returns class ci's j-th hull upgrade (j ≥ 1).
func (s *Solver) classUpgradeAt(ci, j int) (solverUpgrade, bool) {
	f := s.classes[ci].lpFront
	if j < 1 || j >= len(f) {
		return solverUpgrade{}, false
	}
	a, b := f[j-1], f[j]
	dw := b.weight - a.weight
	dp := b.profit - a.profit
	return solverUpgrade{class: ci, pos: j, dw: dw, dp: dp, eff: dp / dw}, true
}

// buildUps sorts the full upgrade pool from scratch (first Solve, or
// after Reset). The (eff desc, class asc, pos asc) key is a strict
// total order, so any comparison sort yields the same array the
// incremental merges maintain.
func (s *Solver) buildUps() {
	s.ups = s.ups[:0]
	for ci := range s.classes {
		for j := 1; ; j++ {
			u, ok := s.classUpgradeAt(ci, j)
			if !ok {
				break
			}
			s.ups = append(s.ups, u)
		}
	}
	sort.Sort(upSlice(s.ups))
	s.upsValid = true
}

// mergeClassUps rebuilds the pool after class ci's hull changed: one
// pass dropping ci's old entries while merging its new ones in order.
func (s *Solver) mergeClassUps(ci int) {
	tmp := s.upsTmp[:0]
	j := 1
	next, hasNext := s.classUpgradeAt(ci, j)
	for _, u := range s.ups {
		if u.class == ci {
			continue
		}
		for hasNext && upLess(next, u) {
			tmp = append(tmp, next)
			j++
			next, hasNext = s.classUpgradeAt(ci, j)
		}
		tmp = append(tmp, u)
	}
	for hasNext {
		tmp = append(tmp, next)
		j++
		next, hasNext = s.classUpgradeAt(ci, j)
	}
	s.ups, s.upsTmp = tmp, s.ups[:0]
}

// insertClassUps renumbers classes ≥ i up by one and merges the new
// class i's upgrades, in a single order-preserving pass (the renumber
// is monotone, so relative order of surviving entries is unchanged).
func (s *Solver) insertClassUps(i int) {
	tmp := s.upsTmp[:0]
	j := 1
	next, hasNext := s.classUpgradeAt(i, j)
	for _, u := range s.ups {
		if u.class >= i {
			u.class++
		}
		for hasNext && upLess(next, u) {
			tmp = append(tmp, next)
			j++
			next, hasNext = s.classUpgradeAt(i, j)
		}
		tmp = append(tmp, u)
	}
	for hasNext {
		tmp = append(tmp, next)
		j++
		next, hasNext = s.classUpgradeAt(i, j)
	}
	s.ups, s.upsTmp = tmp, s.ups[:0]
}

// removeClassUps drops class i's entries and renumbers later classes
// down, in place (write index never passes read index).
func (s *Solver) removeClassUps(i int) {
	out := s.ups[:0]
	for _, u := range s.ups {
		if u.class == i {
			continue
		}
		if u.class > i {
			u.class--
		}
		out = append(out, u)
	}
	s.ups = out
}

// evalInto computes the canonical class-order profit and weight of a
// full choice vector — the same accumulation order as
// Instance.Evaluate, without its allocation.
func (s *Solver) evalInto(choice []int) (profit, weight float64, err error) {
	if len(choice) != len(s.classes) {
		return 0, 0, fmt.Errorf("mckp: choice length %d, want %d", len(choice), len(s.classes)) //rtlint:allow hotalloc -- invalid-input diagnostic, not the steady state
	}
	for i, j := range choice {
		if j < 0 || j >= len(s.classes[i].items) {
			return 0, 0, fmt.Errorf("mckp: class %d choice %d out of range", i, j) //rtlint:allow hotalloc -- invalid-input diagnostic, not the steady state
		}
		it := s.classes[i].items[j]
		profit += it.Profit
		weight += it.Weight
	}
	return profit, weight, nil
}

// SolveHEU runs the HEU-OE greedy (see the package-level SolveHEU) as
// one pass over the cached upgrade pool, building the pool first if no
// Solve has. The returned Solution's Choice aliases solver scratch,
// valid until the next call.
func (s *Solver) SolveHEU() (Solution, error) {
	if len(s.classes) == 0 {
		return Solution{}, errors.New("mckp: no classes")
	}
	if !s.upsValid {
		s.buildUps()
	}
	if !s.heuRun() {
		return Solution{}, ErrInfeasible
	}
	profit, weight, err := s.evalInto(s.heu.choice)
	if err != nil {
		return Solution{}, err
	}
	s.solChoice = append(s.solChoice[:0], s.heu.choice...)
	return Solution{Choice: s.solChoice, Profit: profit, Weight: weight}, nil
}

// SolveDP runs the quantized dynamic program out of the solver's
// arena; the recurrence is identical to the package-level SolveDP, so
// answers match bit-for-bit while steady-state grid allocations drop
// to zero.
func (s *Solver) SolveDP(resolution int) (Solution, error) {
	if len(s.classes) == 0 {
		return Solution{}, errors.New("mckp: no classes")
	}
	sol, err := solveDPInto(&s.view, resolution, &s.dp)
	if err != nil {
		return Solution{}, err
	}
	// Re-home the choice into solver storage so callers see the same
	// aliasing contract as Solve/SolveHEU.
	s.solChoice = append(s.solChoice[:0], sol.Choice...)
	sol.Choice = s.solChoice
	return sol, nil
}
