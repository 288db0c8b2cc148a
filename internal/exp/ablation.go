package exp

import (
	"fmt"
	"slices"

	"rtoffload/internal/core"
	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// SolverAblationRow compares decision quality across MCKP solvers on
// the paper's random task sets (ablation B of DESIGN.md).
type SolverAblationRow struct {
	Solver core.Solver
	// MeanQuality is the expected benefit normalized to the DP answer,
	// averaged over trials.
	MeanQuality float64
	// WorstQuality is the minimum across trials.
	WorstQuality float64
}

// SolverAblation runs DP, HEU-OE and greedy over `trials` random
// Figure-3 task sets (fanned out on `workers` goroutines;
// 0 = GOMAXPROCS) and reports their quality relative to DP.
func SolverAblation(seed uint64, trials, workers int) ([]SolverAblationRow, error) {
	solvers := []core.Solver{core.SolverDP, core.SolverHEU, core.SolverGreedy}
	lv, err := sweepLevels(1, trials, workers, func(_, trial int) ([]float64, error) {
		rng := stats.NewRNG(stats.DeriveSeed(seed, streamSolverAblation, uint64(trial)))
		set, err := task.GenerateFigure3(rng, task.DefaultFigure3Params())
		if err != nil {
			return nil, err
		}
		dp, err := core.Decide(set, core.Options{Solver: core.SolverDP})
		if err != nil {
			return nil, err
		}
		if dp.TotalExpected <= 0 {
			return nil, fmt.Errorf("exp: degenerate DP answer in trial %d", trial)
		}
		q := []float64{1}
		for _, s := range solvers[1:] {
			d, err := core.Decide(set, core.Options{Solver: s})
			if err != nil {
				return nil, err
			}
			q = append(q, d.TotalExpected/dp.TotalExpected)
		}
		return q, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SolverAblationRow, 0, len(solvers))
	for si, s := range solvers {
		worst := min(1, slices.Min(lv[0].col(si)))
		rows = append(rows, SolverAblationRow{Solver: s, MeanQuality: lv[0].mean(si), WorstQuality: worst})
	}
	return rows, nil
}

// NaiveEDFAblationRow compares deadline splitting against naive EDF at
// one Theorem-3 load level (ablation A).
type NaiveEDFAblationRow struct {
	// TargetLoad is the Theorem-3 total the generated systems aim for.
	TargetLoad float64
	Systems    int
	// SplitMissRate / NaiveMissRate: fraction of systems with at least
	// one deadline miss under the adversarial never-responding server.
	SplitMissRate float64
	NaiveMissRate float64
}

// NaiveEDFAblation generates offload-heavy systems across a sweep of
// Theorem-3 load levels and simulates both deadline-assignment
// policies against a server that never returns results (every job
// compensates — the worst case for the second sub-job). Systems fan
// out on `workers` goroutines (0 = GOMAXPROCS).
func NaiveEDFAblation(seed uint64, loads []float64, perLoad, workers int) ([]NaiveEDFAblationRow, error) {
	for _, load := range loads {
		if load <= 0 || load > 1 {
			return nil, fmt.Errorf("exp: load %g out of (0,1]", load)
		}
	}
	lv, err := sweepLevels(len(loads), perLoad, workers, func(li, sysi int) ([]float64, error) {
		rng := stats.NewRNG(stats.DeriveSeed(seed, streamNaiveEDF, uint64(li), uint64(sysi)))
		asgs, ok := genOffloadSystem(rng, loads[li])
		if !ok {
			return nil, nil
		}
		var miss []float64
		for _, p := range []sched.Policy{sched.SplitEDF, sched.NaiveEDF} {
			res, err := runTenPeriods(asgs, p, server.Fixed{Lost: true})
			if err != nil {
				return nil, err
			}
			miss = append(miss, bit(res.Misses > 0))
		}
		return miss, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]NaiveEDFAblationRow, 0, len(loads))
	for li, load := range loads {
		rows = append(rows, NaiveEDFAblationRow{
			TargetLoad:    load,
			Systems:       lv[li].count(),
			SplitMissRate: lv[li].mean(0),
			NaiveMissRate: lv[li].mean(1),
		})
	}
	return rows, nil
}

// genOffloadSystem draws an adversarial-for-naive-EDF system at the
// target Theorem-3 load: one offloaded task with a budget Ri close to
// its deadline (so its compensation window is thin) plus
// shorter-period local tasks whose jobs have earlier absolute
// deadlines. Under the paper's split deadlines the setup sub-job
// outranks the local jobs and everything fits; under naive EDF the
// setup inherits the late deadline, gets pushed behind the local
// burst, and the compensation overruns.
func genOffloadSystem(rng *stats.RNG, load float64) ([]sched.Assignment, bool) {
	n := rng.IntN(3) + 2 // local tasks
	shares := rng.UUniFast(n+1, load)
	var asgs []sched.Assignment
	var off []dbf.Offloaded
	var loc []dbf.Sporadic

	// The tight offloaded task.
	period := rtime.FromMillis(rng.UniformInt(150, 300))
	r := rtime.Duration(rng.Uniform(0.7, 0.88) * float64(period))
	budgetTotal := rtime.Duration(shares[0] * float64(period-r))
	if budgetTotal < 4 {
		return nil, false
	}
	c1 := budgetTotal / 4
	if c1 < 1 {
		c1 = 1
	}
	c2 := budgetTotal - c1
	o, err := dbf.NewOffloaded(c1, c2, period, period, r)
	if err != nil {
		return nil, false
	}
	off = append(off, o)
	asgs = append(asgs, sched.Assignment{Task: &task.Task{
		ID: 0, Period: period, Deadline: period,
		LocalWCET: c2, Setup: c1, Compensation: c2,
		LocalBenefit: 1,
		Levels:       []task.Level{{Response: r, Benefit: 2}},
	}, Offload: true})

	// Short-period local tasks filling the rest of the load.
	for i := 0; i < n; i++ {
		lp := rtime.FromMillis(rng.UniformInt(30, 100))
		c := rtime.Duration(shares[i+1] * float64(lp))
		if c < 1 {
			c = 1
		}
		s, err := dbf.NewSporadic(c, lp, lp)
		if err != nil {
			return nil, false
		}
		loc = append(loc, s)
		asgs = append(asgs, sched.Assignment{Task: &task.Task{
			ID: i + 1, Period: lp, Deadline: lp, LocalWCET: c, LocalBenefit: 1,
		}})
	}
	if _, ok := dbf.Theorem3(off, loc); !ok {
		return nil, false
	}
	return asgs, true
}

// runTenPeriods simulates asgs under policy p against srv for ten
// periods of the longest-period task.
func runTenPeriods(asgs []sched.Assignment, p sched.Policy, srv server.Server) (*sched.Result, error) {
	maxT := rtime.Duration(0)
	for _, a := range asgs {
		if a.Task.Period > maxT {
			maxT = a.Task.Period
		}
	}
	return sched.Run(sched.Config{
		Assignments: asgs,
		Server:      srv,
		Horizon:     10 * maxT,
		Policy:      p,
	})
}

// DBFAblationRow compares acceptance of the paper's Theorem-3 test
// against the exact processor-demand test (QPA over the true split
// dbf) at one load level (ablation C).
type DBFAblationRow struct {
	TargetLoad float64
	Systems    int
	// Accepted counts per test.
	Theorem3Accepted int
	ExactAccepted    int
}

// DBFAblation sweeps nominal load levels; at each level it generates
// systems whose *Theorem-3* total is near the level (some above 1) and
// counts how many each test admits. The exact test dominates: it
// accepts everything Theorem 3 accepts plus systems whose linear bound
// is pessimistic (large Ri). Systems fan out on `workers` goroutines
// (0 = GOMAXPROCS).
func DBFAblation(seed uint64, loads []float64, perLoad, workers int) ([]DBFAblationRow, error) {
	lv, err := sweepLevels(len(loads), perLoad, workers, func(li, sysi int) ([]float64, error) {
		rng := stats.NewRNG(stats.DeriveSeed(seed, streamDBFAblation, uint64(li), uint64(sysi)))
		n := rng.IntN(5) + 2
		shares := rng.UUniFast(n, loads[li])
		var off []dbf.Offloaded
		var ds []dbf.Demand
		for i := 0; i < n; i++ {
			period := rtime.FromMillis(rng.UniformInt(50, 400))
			r := rtime.Duration(rng.Int64N(int64(period * 3 / 4)))
			budgetTotal := rtime.Duration(shares[i] * float64(period-r))
			if budgetTotal < 2 || budgetTotal > period {
				return nil, nil
			}
			c1 := budgetTotal / 4
			if c1 < 1 {
				c1 = 1
			}
			o, err := dbf.NewOffloaded(c1, budgetTotal-c1, period, period, r)
			if err != nil {
				return nil, nil
			}
			off = append(off, o)
			ds = append(ds, o)
		}
		_, thm3 := dbf.Theorem3(off, nil)
		az, err := dbf.NewAnalyzer(ds)
		if err != nil {
			return nil, err
		}
		return []float64{bit(thm3), bit(az.Feasible() == nil)}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]DBFAblationRow, 0, len(loads))
	for li, load := range loads {
		rows = append(rows, DBFAblationRow{
			TargetLoad:       load,
			Systems:          lv[li].count(),
			Theorem3Accepted: int(lv[li].sum(0)),
			ExactAccepted:    int(lv[li].sum(1)),
		})
	}
	return rows, nil
}
