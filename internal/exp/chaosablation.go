package exp

import (
	"fmt"

	"rtoffload/internal/chaos"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
)

// ChaosAblationRow compares the two deadline-assignment policies at
// one fault intensity (robustness ablation, DESIGN.md §5.4).
type ChaosAblationRow struct {
	// Intensity scales the heavy chaos preset: 0 is a fault-free
	// network, 1 the full hostile profile.
	Intensity float64
	Systems   int
	// SplitMissRate / NaiveMissRate: fraction of systems with at least
	// one deadline miss under the faulted server.
	SplitMissRate float64
	NaiveMissRate float64
	// SplitBenefit / NaiveBenefit: mean normalized benefit
	// (1.0 = all-local baseline).
	SplitBenefit float64
	NaiveBenefit float64
}

// ChaosAblation sweeps fault intensity and simulates Theorem-3
// admitted offload-heavy systems under both deadline-assignment
// policies against a responsive server wrapped in the chaos injector
// (the heavy preset scaled by the intensity). With no faults both
// policies ride the hit path; as faults force compensation runs, naive
// EDF's unsplit setup deadlines start missing while deadline splitting
// holds the hard guarantee and sheds only benefit. Systems fan out on
// `workers` goroutines (0 = GOMAXPROCS).
func ChaosAblation(seed uint64, intensities []float64, perLevel, workers int) ([]ChaosAblationRow, error) {
	for _, x := range intensities {
		if x < 0 || x > 1 {
			return nil, fmt.Errorf("exp: intensity %g out of [0,1]", x)
		}
	}
	heavy, err := chaos.Preset("heavy")
	if err != nil {
		return nil, err
	}
	lv, err := sweepLevels(len(intensities), perLevel, workers, func(li, sysi int) ([]float64, error) {
		rng := stats.NewRNG(stats.DeriveSeed(seed, streamChaosAblation, uint64(li), uint64(sysi)))
		asgs, ok := genOffloadSystem(rng, rng.Uniform(0.5, 0.75))
		if !ok {
			return nil, nil
		}
		// A deterministic in-budget server: absent faults every request
		// returns at half the budget (the hit path); every injected loss
		// or delay beyond the budget forces the compensation path.
		// genOffloadSystem puts its one offloaded task first.
		fixed := server.Fixed{Latency: asgs[0].Task.Levels[0].Response / 2}
		cfg := heavy.Scale(intensities[li])
		// Columns: split miss, naive miss, split benefit, naive benefit.
		out := make([]float64, 4)
		for pi, policy := range []sched.Policy{sched.SplitEDF, sched.NaiveEDF} {
			srv, err := chaos.New(fixed, cfg, stats.NewRNG(
				stats.DeriveSeed(seed, streamChaosAblation, uint64(li), uint64(sysi), uint64(pi+1))))
			if err != nil {
				return nil, err
			}
			sim, err := runTenPeriods(asgs, policy, srv)
			if err != nil {
				return nil, err
			}
			out[pi] = bit(sim.Misses > 0)
			out[2+pi] = sim.NormalizedBenefit()
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ChaosAblationRow, 0, len(intensities))
	for li, x := range intensities {
		l := lv[li]
		rows = append(rows, ChaosAblationRow{
			Intensity:     x,
			Systems:       l.count(),
			SplitMissRate: l.mean(0),
			NaiveMissRate: l.mean(1),
			SplitBenefit:  l.mean(2),
			NaiveBenefit:  l.mean(3),
		})
	}
	return rows, nil
}
