package exp

import (
	"fmt"

	"rtoffload/internal/server"
	"rtoffload/internal/stats"
)

// Figure2Stats summarizes one scenario across independent seeds.
type Figure2Stats struct {
	Scenario server.Scenario
	// Mean and CI95 describe the distribution of per-run scenario
	// means (each run averages its 24 work sets). CI95 is the
	// half-width of the Student-t interval — at small run counts the
	// t critical value (4.30 at 3 runs) is what keeps the error bars
	// honest; the normal 1.96 would understate them by half.
	Mean float64
	CI95 float64
	Runs int
}

// Figure2Multi repeats the Figure-2 case study across `seeds`
// independent seeds and reports the scenario means with 95 %
// confidence intervals — the error bars the paper's single 10 s run
// cannot show. The scenario ordering claim (busy < not-busy < idle) is
// only meaningful when the intervals separate; the test suite asserts
// exactly that.
//
// Runs fan out on cfg.Parallel workers; each run's seed is derived
// from (cfg.Seed, run index), so the table is identical for any worker
// count, and distinct base seeds can never share a run stream (the old
// additive offset `seed + run·7919` collided, e.g. base 7919 run 0
// with base 0 run 1).
func Figure2Multi(cfg CaseStudyConfig, seeds int) ([]Figure2Stats, error) {
	lv, err := sweepLevels(1, seeds, cfg.Parallel, func(_, s int) ([]float64, error) {
		c := cfg
		c.Seed = stats.DeriveSeed(cfg.Seed, streamMultiSeed, uint64(s))
		c.Parallel = 1 // the fan-out is per run; don't oversubscribe
		res, err := Figure2(c)
		if err != nil {
			return nil, fmt.Errorf("exp: seed %d: %w", s, err)
		}
		means := make([]float64, len(caseScenarios))
		for si, scenario := range caseScenarios {
			means[si] = stats.Mean(res.Series(scenario))
		}
		return means, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Figure2Stats, 0, len(caseScenarios))
	for si, scenario := range caseScenarios {
		mean, half := stats.MeanCI(lv[0].col(si), stats.TCritical95(seeds))
		out = append(out, Figure2Stats{
			Scenario: scenario, Mean: mean, CI95: half, Runs: seeds,
		})
	}
	return out, nil
}
