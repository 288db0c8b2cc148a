package mckp

// SolveHEU solves the instance approximately with the HEU-OE greedy
// heuristic (Khan 1998, ch. 4; the classic MCKP greedy of Zemel /
// Sinha–Zoltners):
//
//  1. per class, prune IP-dominated items and keep the LP frontier
//     (upper convex hull of weight→profit), along which incremental
//     efficiencies Δp/Δw strictly decrease;
//  2. start from each class's lightest frontier item;
//  3. repeatedly apply the single frontier upgrade with the globally
//     best incremental efficiency that still fits the residual
//     capacity, until no upgrade fits.
//
// It runs Solver.SolveHEU on a fresh Solver: O(Σ|items| log Σ|items|)
// for the sorted upgrade pool, then one pass over it. The result is
// feasible whenever the instance is feasible; otherwise ErrInfeasible.
func SolveHEU(in *Instance) (Solution, error) {
	s, err := NewSolverFrom(in)
	if err != nil {
		return Solution{}, err
	}
	return s.SolveHEU()
}

// heuRun executes the HEU-OE greedy as one pass over the upgrade pool,
// which must be built. The pool is sorted by (eff desc, class asc, pos
// asc) and efficiencies decrease along every LP frontier, so each
// class's upgrades appear in frontier order and the first pool entry
// of an open class is the globally best next upgrade — the one a
// priority queue keyed (eff desc, class asc) would pop. An upgrade
// that does not fit closes its class: later upgrades of the class are
// never more efficient and, frontier weights strictly increasing,
// never lighter. It reports false when even the all-lightest
// assignment does not fit; on success s.heu.choice holds the selected
// item index per class.
func (s *Solver) heuRun() bool {
	n := len(s.classes)
	h := &s.heu
	h.closed = growBools(h.closed, n)
	h.choice = growInts(h.choice, n)
	weight := 0.0
	for i := range s.classes {
		h.closed[i] = false
		h.choice[i] = s.classes[i].lpFront[0].idx
		weight += s.classes[i].lpFront[0].weight
	}
	if weight > s.capacity+1e-12 {
		return false
	}
	for _, u := range s.ups {
		if h.closed[u.class] {
			continue
		}
		if weight+u.dw > s.capacity+1e-12 {
			h.closed[u.class] = true
			continue
		}
		h.choice[u.class] = s.classes[u.class].lpFront[u.pos].idx
		weight += u.dw
	}
	return true
}

// UpperBoundLP returns the LP-relaxation optimum of the instance: the
// greedy fill as in SolveHEU but allowing the final, non-fitting
// upgrade fractionally — the dual bound of Solver's LP step. It is an
// upper bound on every integral solution's profit, used to sandwich
// solver answers in tests.
func UpperBoundLP(in *Instance) (float64, error) {
	s, err := NewSolverFrom(in)
	if err != nil {
		return 0, err
	}
	if !in.Feasible() {
		return 0, ErrInfeasible
	}
	s.buildUps()
	_, dual, _ := s.solveLP()
	return dual, nil
}
