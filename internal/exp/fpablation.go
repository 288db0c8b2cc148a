package exp

import (
	"fmt"

	"rtoffload/internal/dbf"
	"rtoffload/internal/rta"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// FPAblationRow compares admission rates of four tests at one nominal
// load level: the two FP analyses (suspension-oblivious and
// suspension-jitter) against the paper's EDF deadline-splitting
// Theorem 3 and the exact EDF QPA test.
type FPAblationRow struct {
	TargetLoad  float64
	Systems     int
	FPOblivious int
	FPJitter    int
	EDFTheorem3 int
	EDFExact    int
}

// FPAblation sweeps load levels over random mixed systems (half
// offloaded with random budgets, half local) and counts acceptances
// per test. The load parameter is the generated execution utilization
// Σ(C1+C2)/T — suspensions come on top, which is what separates the
// tests. Systems fan out on `workers` goroutines (0 = GOMAXPROCS).
func FPAblation(seed uint64, loads []float64, perLoad, workers int) ([]FPAblationRow, error) {
	for _, load := range loads {
		if load <= 0 || load > 1 {
			return nil, fmt.Errorf("exp: load %g out of (0,1]", load)
		}
	}
	lv, err := sweepLevels(len(loads), perLoad, workers, func(li, sysi int) ([]float64, error) {
		rng := stats.NewRNG(stats.DeriveSeed(seed, streamFPAblation, uint64(li), uint64(sysi)))
		asgs, ok := genMixedSystem(rng, loads[li])
		if !ok {
			return nil, nil
		}
		model, err := rta.FromAssignments(asgs)
		if err != nil {
			return nil, err
		}
		// Columns: FP oblivious, FP jitter, EDF Theorem 3, EDF exact.
		out := make([]float64, 4)
		for i, m := range []rta.Method{rta.Oblivious, rta.Jitter} {
			r, err := rta.Analyze(model, m)
			out[i] = bit(err == nil && r.Schedulable)
		}

		// Systems whose split dbf objects cannot be built count toward
		// the FP columns only.
		var off []dbf.Offloaded
		var loc []dbf.Sporadic
		var ds []dbf.Demand
		for _, a := range asgs {
			t := a.Task
			if a.Offload {
				o, err := dbf.NewOffloaded(t.SetupAt(a.Level), t.SecondPhaseAt(a.Level),
					t.Deadline, t.Period, a.Budget())
				if err != nil {
					return out, nil
				}
				off = append(off, o)
				ds = append(ds, o)
			} else {
				s, err := dbf.NewSporadic(t.LocalWCET, t.Deadline, t.Period)
				if err != nil {
					return out, nil
				}
				loc = append(loc, s)
				ds = append(ds, s)
			}
		}
		_, thm3 := dbf.Theorem3(off, loc)
		out[2] = bit(thm3)
		az, err := dbf.NewAnalyzer(ds)
		if err != nil {
			return nil, err
		}
		out[3] = bit(az.Feasible() == nil)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]FPAblationRow, 0, len(loads))
	for li, load := range loads {
		l := lv[li]
		rows = append(rows, FPAblationRow{
			TargetLoad:  load,
			Systems:     l.count(),
			FPOblivious: int(l.sum(0)),
			FPJitter:    int(l.sum(1)),
			EDFTheorem3: int(l.sum(2)),
			EDFExact:    int(l.sum(3)),
		})
	}
	return rows, nil
}

// genMixedSystem draws a system whose execution utilization is load,
// with random suspensions on the offloaded half.
func genMixedSystem(rng *stats.RNG, load float64) ([]sched.Assignment, bool) {
	n := rng.IntN(5) + 3
	shares := rng.UUniFast(n, load)
	var asgs []sched.Assignment
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(50, 400))
		c := rtime.Duration(shares[i] * float64(period))
		if c < 2 {
			c = 2
		}
		if i%2 == 0 {
			asgs = append(asgs, sched.Assignment{Task: &task.Task{
				ID: i, Period: period, Deadline: period, LocalWCET: c, LocalBenefit: 1,
			}})
			continue
		}
		c1 := c / 4
		if c1 < 1 {
			c1 = 1
		}
		c2 := c - c1
		r := rtime.Duration(rng.Int64N(int64(period / 2)))
		tk := &task.Task{
			ID: i, Period: period, Deadline: period,
			LocalWCET: c2, Setup: c1, Compensation: c2, LocalBenefit: 1,
			Levels: []task.Level{{Response: r + 1, Benefit: 2}},
		}
		if tk.Validate() != nil {
			return nil, false
		}
		asgs = append(asgs, sched.Assignment{Task: tk, Offload: true})
	}
	return asgs, true
}
