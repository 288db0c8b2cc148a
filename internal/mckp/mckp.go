// Package mckp solves the multiple-choice knapsack problem (MCKP) that
// the paper's Offloading Decision Manager reduces to (§5.2):
//
//	max  Σi Σj xij · pij
//	s.t. Σi Σj xij · wij ≤ capacity,  Σj xij = 1 for every class i,
//	     xij ∈ {0, 1}
//
// Exactly one item must be chosen from every class. In the offloading
// instance, class i is task τi, item j=0 is local execution
// (w = Ci/Ti, p = Gi(0)) and the remaining items are the offloading
// levels (w = (Ci,1+Ci,2)/(Di−ri,j), p = Gi(ri,j)).
//
// Five solvers are provided:
//
//   - Solver: the persistent, incremental, exact core-method solver
//     (Dudzinski & Walukiewicz): cached per-class dominance frontiers,
//     LP-relaxation dual solve, reduced-cost fixing of non-core
//     classes, and branch-and-bound restricted to the core, with
//     arena-backed allocation-free re-solves. This is the production
//     solver for fleet-sized instances and admission churn.
//   - SolveDP: the pseudo-polynomial dynamic program over a quantized
//     capacity grid (weights here are reals, so the grid quantization
//     rounds weights *up*, making every DP answer feasible under the
//     exact test — at worst slightly conservative).
//   - SolveHEU: the HEU-OE greedy heuristic (Khan 1998): per-class
//     LP-dominance frontiers, then repeated selection of the upgrade
//     with the best incremental efficiency Δprofit/Δweight.
//   - SolveBruteForce: exhaustive enumeration for verification on
//     small instances.
//   - SolveGreedy: a naive density-blind baseline for ablations.
//
// SolveBnB is the older from-scratch branch-and-bound, kept as an
// exact cross-check; its per-depth suffix tables over *all* classes
// cost O(n²·m), which is what Solver's core restriction removes.
//
// UpperBoundLP computes the LP-relaxation optimum, an upper bound used
// by tests to sandwich the DP and HEU answers.
package mckp

import (
	"errors"
	"fmt"
	"math"
)

// Item is one choice within a class.
type Item struct {
	Weight float64 // resource demand, in the same unit as Instance.Capacity
	Profit float64 // objective contribution
}

// Class is a set of mutually exclusive items; exactly one must be
// chosen.
type Class struct {
	Label string
	Items []Item
}

// Instance is an MCKP instance.
type Instance struct {
	Classes  []Class
	Capacity float64
}

// Solution is an assignment of one item per class.
type Solution struct {
	// Choice[i] is the selected item index within Classes[i].
	Choice []int
	Profit float64
	Weight float64
}

// ErrInfeasible reports that no assignment fits the capacity.
var ErrInfeasible = errors.New("mckp: infeasible instance")

// Validate checks structural sanity: at least one class, non-empty
// classes, finite non-negative weights and finite profits, positive
// capacity.
func (in *Instance) Validate() error {
	if in.Capacity <= 0 || math.IsNaN(in.Capacity) || math.IsInf(in.Capacity, 0) {
		return fmt.Errorf("mckp: invalid capacity %g", in.Capacity)
	}
	if len(in.Classes) == 0 {
		return errors.New("mckp: no classes")
	}
	for i, c := range in.Classes {
		if len(c.Items) == 0 {
			return fmt.Errorf("mckp: class %d (%s) has no items", i, c.Label)
		}
		for j, it := range c.Items {
			if it.Weight < 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
				return fmt.Errorf("mckp: class %d item %d has invalid weight %g", i, j, it.Weight)
			}
			if math.IsNaN(it.Profit) || math.IsInf(it.Profit, 0) {
				return fmt.Errorf("mckp: class %d item %d has invalid profit %g", i, j, it.Profit)
			}
		}
	}
	return nil
}

// minWeightSum returns the sum over classes of each class's lightest
// item — the smallest total weight any assignment can have.
func (in *Instance) minWeightSum() float64 {
	sum := 0.0
	for _, c := range in.Classes {
		minW := math.Inf(1)
		for _, it := range c.Items {
			if it.Weight < minW {
				minW = it.Weight
			}
		}
		sum += minW
	}
	return sum
}

// Feasible reports whether at least one assignment fits the capacity.
func (in *Instance) Feasible() bool {
	return in.minWeightSum() <= in.Capacity+1e-12
}

// Evaluate computes the profit and weight of a choice vector and
// validates it against the instance.
func (in *Instance) Evaluate(choice []int) (Solution, error) {
	if len(choice) != len(in.Classes) {
		return Solution{}, fmt.Errorf("mckp: choice length %d, want %d", len(choice), len(in.Classes))
	}
	s := Solution{Choice: append([]int(nil), choice...)}
	for i, j := range choice {
		if j < 0 || j >= len(in.Classes[i].Items) {
			return Solution{}, fmt.Errorf("mckp: class %d choice %d out of range", i, j)
		}
		it := in.Classes[i].Items[j]
		s.Profit += it.Profit
		s.Weight += it.Weight
	}
	return s, nil
}

// FitsCapacity reports whether the solution's weight is within the
// instance capacity (with a small tolerance for float accumulation).
func (s Solution) FitsCapacity(in *Instance) bool {
	return s.Weight <= in.Capacity+1e-9
}

// frontierItem is an item surviving dominance pruning, with its
// original index retained for solution reconstruction.
type frontierItem struct {
	idx    int
	weight float64
	profit float64
}

// ipFrontierInto removes IP-dominated items from a class: item b is
// dominated if some item a has weight ≤ b's and profit ≥ b's. The
// result is sorted by strictly increasing weight and strictly
// increasing profit. It writes into dst (the persistent Solver's
// per-class arena), truncated and regrown; the returned slice aliases
// it.
func ipFrontierInto(dst []frontierItem, items []Item) []frontierItem {
	f := dst[:0]
	for idx, it := range items {
		f = append(f, frontierItem{idx: idx, weight: it.Weight, profit: it.Profit})
	}
	// Sort by weight, ties by descending profit so the best of equal
	// weights survives, with the original index as the final
	// tiebreaker for determinism.
	sortFrontier(f)
	out := f[:0]
	bestProfit := math.Inf(-1)
	for _, x := range f {
		if x.profit > bestProfit {
			out = append(out, x)
			bestProfit = x.profit
		}
	}
	return out
}

// lpFrontierInto further removes LP-dominated items: points not on
// the upper-left convex hull of (weight, profit). Input must be an
// ipFrontierInto result. Along the output, incremental efficiencies
// Δprofit/Δweight are strictly decreasing. It writes into dst, which
// must not alias f; the returned slice aliases dst.
func lpFrontierInto(dst []frontierItem, f []frontierItem) []frontierItem {
	hull := dst[:0]
	for _, x := range f {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// b is LP-dominated if slope(a→b) ≤ slope(b→x).
			if (b.profit-a.profit)*(x.weight-b.weight) <= (x.profit-b.profit)*(b.weight-a.weight) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, x)
	}
	return hull
}

// sortFrontier sorts by (weight asc, profit desc, idx asc) via
// insertion sort; class sizes are small.
func sortFrontier(f []frontierItem) {
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && frontierLess(f[j], f[j-1]); j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
}

func frontierLess(a, b frontierItem) bool {
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	if a.profit != b.profit {
		return a.profit > b.profit
	}
	return a.idx < b.idx
}
