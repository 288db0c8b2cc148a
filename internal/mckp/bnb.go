package mckp

import (
	"math"
	"sort"
)

// SolveBnB solves the instance exactly by depth-first branch-and-bound
// with LP-relaxation pruning. Unlike SolveDP it needs no capacity
// quantization — answers are exact for real-valued weights — and on
// typical offloading instances (strong LP bounds, few classes that
// matter) it visits a tiny fraction of the assignment tree. Classes
// are branched in decreasing order of their benefit spread, items
// within a class in decreasing profit, so good incumbents appear
// early.
//
// Worst-case time is exponential; MaxBnBNodes caps the search and the
// solver falls back to the best incumbent found. The incumbent is
// seeded with SolveHEU alone — near-optimal on offloading instances
// and far cheaper than the 10k-cell SolveDP grid this solver used to
// run unconditionally just to seed itself. SolveDP is consulted only
// when the node cap was actually hit (the incumbent is then unproven,
// whether or not it improved on the HEU seed), so a capped search
// still returns at least the quantized-DP answer; an uncapped search
// returns the true optimum without ever paying for the DP.
func SolveBnB(in *Instance) (Solution, error) {
	return solveBnBNodeCap(in, MaxBnBNodes)
}

// solveBnBNodeCap is SolveBnB with an explicit node budget, split out
// so tests can force the capped-search DP fallback.
func solveBnBNodeCap(in *Instance, nodeCap int) (Solution, error) {
	hs, err := NewSolverFrom(in)
	if err != nil {
		return Solution{}, err
	}
	if !in.Feasible() {
		return Solution{}, ErrInfeasible
	}

	// Seed the incumbent with HEU (feasible whenever the instance is);
	// its solver's cached LP frontiers feed the suffix bounds below.
	best, err := hs.SolveHEU()
	if err != nil {
		return Solution{}, err
	}

	n := len(in.Classes)
	// Branch order: classes by decreasing profit spread.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	spread := make([]float64, n)
	for i, c := range in.Classes {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, it := range c.Items {
			if it.Profit < lo {
				lo = it.Profit
			}
			if it.Profit > hi {
				hi = it.Profit
			}
		}
		spread[i] = hi - lo
	}
	sort.SliceStable(order, func(a, b int) bool { return spread[order[a]] > spread[order[b]] })

	// Per-class item orders (decreasing profit) and suffix structures:
	// minimum weight and LP frontier of the remaining classes for
	// bounding.
	itemOrder := make([][]int, n)
	for i, c := range in.Classes {
		io := make([]int, len(c.Items))
		for j := range io {
			io[j] = j
		}
		items := c.Items
		sort.SliceStable(io, func(a, b int) bool {
			if items[io[a]].Profit != items[io[b]].Profit {
				return items[io[a]].Profit > items[io[b]].Profit
			}
			return items[io[a]].Weight < items[io[b]].Weight
		})
		itemOrder[i] = io
	}
	// suffixMinW[k] = Σ over order[k:] of each class's lightest item.
	suffixMinW := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		minW := math.Inf(1)
		for _, it := range in.Classes[order[k]].Items {
			if it.Weight < minW {
				minW = it.Weight
			}
		}
		suffixMinW[k] = suffixMinW[k+1] + minW
	}
	// Suffix LP bound structures: for every depth k, the upgrades of
	// the remaining classes pre-sorted by efficiency with prefix sums,
	// so each bound evaluation is a binary search instead of a sort.
	baseP := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		baseP[k] = baseP[k+1] + hs.classes[order[k]].lpFront[0].profit
	}
	type upg struct{ dw, dp float64 }
	suffixUps := make([][]upg, n+1)
	suffixCumW := make([][]float64, n+1)
	suffixCumP := make([][]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		f := hs.classes[order[k]].lpFront
		merged := append([]upg(nil), suffixUps[k+1]...)
		for j := 1; j < len(f); j++ {
			merged = append(merged, upg{dw: f[j].weight - f[j-1].weight, dp: f[j].profit - f[j-1].profit})
		}
		sort.Slice(merged, func(a, b int) bool { return merged[a].dp*merged[b].dw > merged[b].dp*merged[a].dw })
		suffixUps[k] = merged
		cw := make([]float64, len(merged)+1)
		cp := make([]float64, len(merged)+1)
		for i, u := range merged {
			cw[i+1] = cw[i] + u.dw
			cp[i+1] = cp[i] + u.dp
		}
		suffixCumW[k] = cw
		suffixCumP[k] = cp
	}

	bnb := &bnbState{
		in:         in,
		order:      order,
		itemOrder:  itemOrder,
		suffixMinW: suffixMinW,
		baseP:      baseP,
		cumW:       suffixCumW,
		cumP:       suffixCumP,
		nodeCap:    nodeCap,
		choice:     make([]int, n),
		bestChoice: append([]int(nil), best.Choice...),
		bestProfit: best.Profit,
	}
	copy(bnb.choice, best.Choice)
	bnb.search(0, 0, 0)

	// A capped search may have been cut off before reaching the good
	// subtrees, so its incumbent is unproven — even one that improved
	// on the HEU seed can trail the quantized DP. Only then pay for the
	// DP and keep whichever answer is better.
	if bnb.nodes >= bnb.nodeCap {
		if dp, err := SolveDP(in, 0); err == nil && dp.Profit > bnb.bestProfit {
			bnb.bestProfit = dp.Profit
			copy(bnb.bestChoice, dp.Choice)
		}
	}

	sol, err := in.Evaluate(bnb.bestChoice)
	if err != nil {
		return Solution{}, err
	}
	return sol, nil
}

// MaxBnBNodes caps the branch-and-bound search.
const MaxBnBNodes = 2_000_000

type bnbState struct {
	in         *Instance
	order      []int
	itemOrder  [][]int
	suffixMinW []float64
	baseP      []float64
	cumW, cumP [][]float64

	nodeCap    int
	choice     []int
	bestChoice []int
	bestProfit float64
	nodes      int
}

// suffixLPBound returns an upper bound on the profit attainable from
// classes order[k:] within the residual capacity: each class takes its
// lightest frontier item, then the pre-sorted fractional upgrades.
//
// The suffix upgrade list merges upgrades of *all* remaining classes
// in one global efficiency order; because per-class efficiencies
// decrease along LP frontiers, the greedy fill over this list is the
// true LP optimum of the suffix.
func (s *bnbState) suffixLPBound(k int, residual float64) float64 {
	rem := residual - s.suffixMinW[k]
	if rem < 0 {
		return math.Inf(1) // handled by the min-weight pruning at branch time
	}
	cw, cp := s.cumW[k], s.cumP[k]
	// Largest prefix of upgrades fitting rem.
	lo, hi := 0, len(cw)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if cw[mid] <= rem {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	profit := s.baseP[k] + cp[lo]
	if lo+1 < len(cw) {
		dw := cw[lo+1] - cw[lo]
		dp := cp[lo+1] - cp[lo]
		if frac := rem - cw[lo]; frac > 0 && dw > 0 {
			profit += dp * frac / dw
		}
	}
	return profit
}

func (s *bnbState) search(k int, weight, profit float64) {
	if s.nodes >= s.nodeCap {
		return
	}
	s.nodes++
	if k == len(s.order) {
		if profit > s.bestProfit {
			s.bestProfit = profit
			copy(s.bestChoice, s.choice)
		}
		return
	}
	// Bound: current profit + LP bound of the suffix.
	if profit+s.suffixLPBound(k, s.in.Capacity-weight+1e-12) <= s.bestProfit+1e-12 {
		return
	}
	ci := s.order[k]
	items := s.in.Classes[ci].Items
	for _, j := range s.itemOrder[ci] {
		w := weight + items[j].Weight
		if w+s.suffixMinW[k+1] > s.in.Capacity+1e-12 {
			continue
		}
		s.choice[ci] = j
		s.search(k+1, w, profit+items[j].Profit)
	}
}
