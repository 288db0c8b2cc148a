package mckp

// Test oracles for the solvers: the LP-relaxation bound every
// integral optimum sits under, and the capacity check every solution
// must pass.

// upperBoundLP returns the LP-relaxation optimum of the instance: the
// greedy fill as in SolveHEU but allowing the final, non-fitting
// upgrade fractionally — the dual bound of Solver's LP step. It is an
// upper bound on every integral solution's profit, used to sandwich
// solver answers.
func upperBoundLP(in *Instance) (float64, error) {
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

// fitsCapacity reports whether the solution's weight is within the
// instance capacity (with a small tolerance for float accumulation).
func (s Solution) fitsCapacity(in *Instance) bool {
	return s.Weight <= in.Capacity+1e-9
}
