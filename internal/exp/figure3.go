package exp

import (
	"fmt"
	"math"

	"rtoffload/internal/benefit"
	"rtoffload/internal/core"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// Figure3Config parameterizes the §6.2 simulation study.
type Figure3Config struct {
	Seed uint64
	// Parallel bounds the worker pool the trials fan out on
	// (0 = GOMAXPROCS, 1 = sequential). The sweep is bit-identical for
	// every value: per-trial randomness is derived from (Seed, trial),
	// not from a shared sequential generator.
	Parallel int
	// Ratios are the estimation-accuracy ratios x; the paper sweeps
	// −0.4 … +0.4 in steps of 0.1.
	Ratios []float64
	// Trials is the number of random 30-task sets averaged per ratio.
	Trials int
	// TaskParams generates each trial's set (paper defaults).
	TaskParams task.Figure3Params
	// Simulate additionally runs each decision through the EDF
	// simulator against the true response-time distributions and
	// reports the observed in-time fractions (slower; used to validate
	// the analytic scores).
	Simulate       bool
	SimHorizonSecs float64
	// Interpretation selects how the estimator's error "uses
	// G((1+x)·ri)" (the paper's phrasing admits two readings; see the
	// constants).
	Interpretation Interpretation
}

// Interpretation disambiguates the paper's estimation-error model.
type Interpretation int

const (
	// BudgetShift (default): the estimator's response-time samples are
	// off by the factor (1+x), so every discrete point of Gi moves to
	// (1+x)·ri and the system sets its timers to the shifted budgets.
	// This matches the paper's causal narrative — under-estimated
	// response times make "the local compensation more frequently
	// adopted" — and produces the steep optimistic side.
	BudgetShift Interpretation = iota
	// ValueShift: the decision evaluates the benefit of budget ri by
	// reading the true function at (1+x)·ri (the formula verbatim)
	// while timers stay at the true ri. Only the *selection* can be
	// wrong, never the timer, so degradation is mild — an upper curve
	// on what the paper could have measured.
	ValueShift
)

// DefaultFigure3Config returns the paper's sweep.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{
		Seed:       1,
		Ratios:     []float64{-0.4, -0.3, -0.2, -0.1, 0, 0.1, 0.2, 0.3, 0.4},
		Trials:     20,
		TaskParams: task.DefaultFigure3Params(),
	}
}

// Figure3Point is one plotted point: solver × accuracy ratio →
// normalized total benefit.
type Figure3Point struct {
	Ratio  float64
	Solver core.Solver
	// Normalized is the realized total benefit (true success
	// probability of each chosen budget) divided by the perfect-
	// estimation DP value, averaged over trials.
	Normalized float64
	// SimNormalized is the simulation-measured counterpart (0 when
	// Simulate is off): in-time results per offloaded job, weighted
	// like the analytic score.
	SimNormalized float64
}

// Figure3Result is the full sweep.
type Figure3Result struct {
	Points []Figure3Point
}

// Series extracts one solver's normalized values in ratio order.
func (r *Figure3Result) Series(s core.Solver) []float64 {
	var out []float64
	for _, p := range r.Points {
		if p.Solver == s {
			out = append(out, p.Normalized)
		}
	}
	return out
}

// Figure3 reproduces the estimation-error study: the Benefit and
// Response Time Estimator sees G((1+x)·ri) — i.e. the discrete points
// shifted by the accuracy ratio — while the true success probabilities
// stay put. Decisions are made by the DP and HEU-OE solvers on the
// erroneous view; the realized benefit of a decision is the *true*
// Gi at each chosen budget. Values are normalized to DP at x = 0.
func Figure3(cfg Figure3Config) (*Figure3Result, error) {
	if len(cfg.Ratios) == 0 || cfg.Trials <= 0 {
		return nil, fmt.Errorf("exp: figure 3 needs ratios and trials")
	}
	solvers := []core.Solver{core.SolverDP, core.SolverHEU}
	// Each trial is one draw: column 0 is its normalization, then one
	// (analytic, sim) pair per (solver, ratio). Trials fold in trial
	// order, so float summation order is fixed whatever the worker
	// count; the simulation draws per-(trial, ratio, solver) streams.
	col := func(si, ri int) int { return 1 + 2*(si*len(cfg.Ratios)+ri) }
	lv, err := sweepLevels(1, cfg.Trials, cfg.Parallel, func(_, trial int) ([]float64, error) {
		rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, streamFigure3Trial, uint64(trial)))
		trueSet, err := task.GenerateFigure3(rng, cfg.TaskParams)
		if err != nil {
			return nil, err
		}
		// Per-trial normalization: DP at perfect estimation.
		perfect, err := core.Decide(trueSet, core.Options{Solver: core.SolverDP})
		if err != nil {
			return nil, err
		}
		denom, err := core.RealizedBenefit(perfect, trueSet)
		if err != nil {
			return nil, err
		}
		if denom <= 0 {
			return nil, fmt.Errorf("exp: degenerate trial %d: zero benefit at perfect estimation", trial)
		}
		out := make([]float64, 1+2*len(solvers)*len(cfg.Ratios))
		out[0] = denom
		for ri, x := range cfg.Ratios {
			estSet, err := perturbFor(cfg.Interpretation, trueSet, x)
			if err != nil {
				return nil, err
			}
			for si, solver := range solvers {
				dec, err := core.Decide(estSet, core.Options{Solver: solver})
				if err != nil {
					return nil, fmt.Errorf("exp: trial %d x=%g %v: %w", trial, x, solver, err)
				}
				realized, err := core.RealizedBenefit(dec, trueSet)
				if err != nil {
					return nil, err
				}
				out[col(si, ri)] = realized
				if cfg.Simulate {
					simRNG := stats.NewRNG(stats.DeriveSeed(cfg.Seed, streamFigure3Sim,
						uint64(trial), uint64(ri), uint64(si)))
					frac, err := simulateHitBenefit(dec, trueSet, simRNG, cfg.SimHorizonSecs)
					if err != nil {
						return nil, err
					}
					out[col(si, ri)+1] = frac
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	trials := lv[0]
	denom := trials.sum(0)
	res := &Figure3Result{}
	for si, solver := range solvers {
		for ri, x := range cfg.Ratios {
			p := Figure3Point{Ratio: x, Solver: solver, Normalized: trials.sum(col(si, ri)) / denom}
			if cfg.Simulate {
				p.SimNormalized = trials.sum(col(si, ri)+1) / denom
			}
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// perturbFor builds the estimator's view of the set under the chosen
// interpretation of G((1+x)·ri).
func perturbFor(interp Interpretation, trueSet task.Set, x float64) (task.Set, error) {
	switch interp {
	case BudgetShift:
		return core.PerturbSet(trueSet, x)
	case ValueShift:
		out := trueSet.Clone()
		for _, t := range out {
			f := benefit.FromTask(trueSet.ByID(t.ID))
			prev := t.LocalBenefit
			for j := range t.Levels {
				v := f.At(rtime.Duration(math.Round((1 + x) * float64(t.Levels[j].Response))))
				// Keep the ladder non-decreasing after sampling the
				// step function at shifted abscissae.
				if v < prev {
					v = prev
				}
				t.Levels[j].Benefit = v
				prev = v
			}
			if err := t.Validate(); err != nil {
				return nil, fmt.Errorf("exp: value-shift produced invalid task: %w", err)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("exp: unknown interpretation %d", int(interp))
	}
}

// simulateHitBenefit runs the decision against a CDF server drawn from
// the true benefit functions and scores each offloaded job 1 when its
// result arrives within the chosen budget — the simulation counterpart
// of the analytic realized benefit (per-job average × job-count
// normalization cancels out across tasks with near-equal periods, so
// the score is the per-release expected value summed over tasks).
func simulateHitBenefit(dec *core.Decision, trueSet task.Set, rng *stats.RNG, horizonSecs float64) (float64, error) {
	if horizonSecs <= 0 {
		horizonSecs = 10
	}
	samplers := map[int]server.ResponseSampler{}
	asgs := dec.Assignments()
	// The simulator must time out according to the *decided* budgets
	// (already inside the assignments) while latencies follow the true
	// CDFs.
	for _, c := range dec.Choices {
		if c.Offload {
			tt := trueSet.ByID(c.Task.ID)
			if tt == nil {
				return 0, fmt.Errorf("exp: true set misses task %d", c.Task.ID)
			}
			samplers[c.Task.ID] = benefit.FromTask(tt)
		}
	}
	res, err := sched.Run(sched.Config{
		Assignments: asgs,
		Server:      server.NewCDF(rng, samplers),
		Horizon:     rtime.FromSeconds(horizonSecs),
	})
	if err != nil {
		return 0, err
	}
	if res.Misses != 0 {
		return 0, fmt.Errorf("exp: figure-3 simulation missed %d deadlines", res.Misses)
	}
	total := 0.0
	for _, c := range dec.Choices {
		st := res.PerTask[c.Task.ID]
		if st == nil || st.Finished == 0 {
			continue
		}
		if c.Offload {
			total += c.Task.EffectiveWeight() * float64(st.Hits) / float64(st.Finished)
		} else {
			total += c.Task.EffectiveWeight() * c.Task.LocalBenefit
		}
	}
	return total, nil
}
