package core

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/task"
)

// EstimatorConfig parameterizes the Benefit and Response Time
// Estimator (§3.2): offline probing of the unreliable server followed
// by coarse-grained statistical estimation of the per-level response
// budgets.
type EstimatorConfig struct {
	// Probes per level; more probes tighten the quantile estimate.
	Probes int
	// Spacing between probe requests; should approximate the task's
	// production period so queueing effects are representative.
	Spacing rtime.Duration
	// Quantile in (0, 1]: the level's estimated worst-case response
	// time Ri is this quantile of the observed latencies (e.g. 0.9 for
	// a coarse 90th-percentile estimate).
	Quantile float64
	// Margin inflates the estimated budgets by the given fraction
	// (budget = quantile × (1+Margin)). Probing measures an unloaded
	// request stream; a margin absorbs the extra queueing the system's
	// own concurrent offloads will cause (§3.2's accuracy discussion).
	// Must be ≥ 0; 0 disables.
	Margin float64
}

// Validate checks the configuration.
func (c EstimatorConfig) Validate() error {
	if c.Probes <= 0 {
		return fmt.Errorf("core: estimator needs probes > 0")
	}
	if c.Spacing <= 0 {
		return fmt.Errorf("core: estimator needs positive spacing")
	}
	//rtlint:allow floatexact -- range check on a user-supplied float parameter, not time arithmetic
	if c.Quantile <= 0 || c.Quantile > 1 {
		return fmt.Errorf("core: estimator quantile %g out of (0,1]", c.Quantile)
	}
	//rtlint:allow floatexact -- range check on a user-supplied float parameter, not time arithmetic
	if c.Margin < 0 {
		return fmt.Errorf("core: negative estimator margin %g", c.Margin)
	}
	return nil
}

// budgetFrom converts observed latencies into a budget estimate: the
// exact nearest-rank Quantile of the integer latencies, inflated by
// Margin in exact rational arithmetic with the result rounded *up* to
// the next microsecond tick. The budgets feed the exact admission
// analysis, so the estimate must never round below the observed
// quantile — the earlier float64 ECDF path could both misrank the
// quantile (⌈q·n⌉ computed in floats can land one rank off) and
// truncate the margin multiply down by a tick.
func (c EstimatorConfig) budgetFrom(lats []rtime.Duration) rtime.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]rtime.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return inflateBudget(s[nearestRank(c.Quantile, len(s))], c.Margin)
}

// nearestRank returns the 0-based nearest-rank index ⌈q·n⌉−1, clamped
// into [0, n−1]. Every float64 is a dyadic rational, so SetFloat64 is
// lossless and the ceiling is exact.
func nearestRank(q float64, n int) int {
	r := new(big.Rat).SetFloat64(q)
	if r == nil || r.Sign() <= 0 {
		return 0
	}
	// ⌈num·n/den⌉ − 1 = ⌊(num·n − 1)/den⌋ for positive operands.
	idx := new(big.Int).Mul(r.Num(), big.NewInt(int64(n)))
	idx.Div(idx.Sub(idx, big.NewInt(1)), r.Denom())
	if !idx.IsInt64() || idx.Int64() >= int64(n) {
		return n - 1
	}
	if i := idx.Int64(); i > 0 {
		return int(i)
	}
	return 0
}

// inflateBudget returns base + ⌈base·margin⌉ exactly, saturating at
// the int64 ceiling. Rounding the margin contribution up is the
// conservative direction: a safety margin that silently shrinks by a
// tick defeats its purpose.
func inflateBudget(base rtime.Duration, margin float64) rtime.Duration {
	m := new(big.Rat).SetFloat64(margin)
	if m == nil || m.Sign() <= 0 {
		return base
	}
	extra := new(big.Int).Mul(big.NewInt(int64(base)), m.Num())
	q, rem := new(big.Int).QuoRem(extra, m.Denom(), new(big.Int))
	if rem.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	q.Add(q, big.NewInt(int64(base)))
	if !q.IsInt64() {
		return rtime.Duration(math.MaxInt64)
	}
	return rtime.Duration(q.Int64())
}

// EstimateBudgets probes srv with each level's payload and overwrites
// the level's Response with the configured quantile of the observed
// latencies, preserving benefit values and WCETs. Levels whose probes
// all get lost keep their prior Response. The set is modified in
// place; strict response monotonicity across levels is restored by
// bumping ties (larger payloads cannot report smaller budgets). srv
// is the only server known, so a level that names one by ServerID is
// an error; use EstimateBudgetsRouted for multi-component systems.
func EstimateBudgets(srv server.Server, set task.Set, cfg EstimatorConfig) error {
	return EstimateBudgetsRouted(srv, nil, set, cfg)
}

// EstimateBudgetsRouted is EstimateBudgets for multi-component systems:
// levels with a ServerID are probed against their named server, others
// against def. Each server keeps its own monotone probe clock, and an
// idle gap of 20 spacings after every level's batch lets the server
// queue drain, so each level measures steady state rather than the
// previous batch's backlog tail.
func EstimateBudgetsRouted(def server.Server, servers map[string]server.Server, set task.Set, cfg EstimatorConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	clocks := map[string]rtime.Instant{}
	for _, t := range set {
		prev := rtime.Duration(0)
		for j := range t.Levels {
			id := t.Levels[j].ServerID
			srv := def
			if id != "" {
				srv = servers[id]
				if srv == nil {
					return fmt.Errorf("core: task %d level %d routes to unknown server %q", t.ID, j, id)
				}
			}
			var lats []rtime.Duration
			lats, clocks[id] = server.ProbeFrom(srv, clocks[id], cfg.Probes, t.Levels[j].PayloadBytes, cfg.Spacing)
			//rtlint:allow overflowguard -- 20 probe spacings of validated config, far below the int64 horizon
			clocks[id] = clocks[id].Add(20 * cfg.Spacing)
			if len(lats) > 0 {
				t.Levels[j].Response = cfg.budgetFrom(lats)
			}
			if t.Levels[j].Response <= prev {
				t.Levels[j].Response = prev + 1
			}
			prev = t.Levels[j].Response
		}
	}
	return set.Validate()
}
