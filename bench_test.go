// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus the DESIGN.md ablations. Each benchmark both
// measures the harness and reports the experiment's headline numbers
// as custom metrics, so `go test -bench=. -benchmem` doubles as the
// reproduction run. EXPERIMENTS.md records the paper-vs-measured
// comparison.
package rtoffload_test

import (
	"fmt"
	"testing"

	"rtoffload/internal/admitd"
	"rtoffload/internal/core"
	"rtoffload/internal/dbf"
	"rtoffload/internal/exp"
	"rtoffload/internal/partition"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// benchCaseConfig trims probe counts so a single iteration stays in
// the hundreds of milliseconds without changing the calibration.
func benchCaseConfig() exp.CaseStudyConfig {
	cfg := exp.DefaultCaseStudyConfig()
	cfg.Probes = 150
	return cfg
}

// BenchmarkTable1 regenerates Table 1: the PSNR benefit ladders and
// probed response budgets of the four robot-vision tasks.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(benchCaseConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: 24 work sets × 3 scenarios of
// the case study. The scenario means are reported as custom metrics
// (the paper's headline: busy ≈ baseline, idle ≫ baseline).
func BenchmarkFigure2(b *testing.B) {
	var res *exp.Figure2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Figure2(benchCaseConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		for _, s := range []server.Scenario{server.Busy, server.NotBusy, server.Idle} {
			vals := res.Series(s)
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			b.ReportMetric(sum/float64(len(vals)), "norm-"+s.String())
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: the estimation-accuracy sweep
// for DP and HEU-OE. The extreme and centre points are reported as
// custom metrics.
func BenchmarkFigure3(b *testing.B) {
	cfg := exp.DefaultFigure3Config()
	cfg.Trials = 5
	var res *exp.Figure3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		dp := res.Series(core.SolverDP)
		heu := res.Series(core.SolverHEU)
		b.ReportMetric(dp[0], "dp-xneg40")
		b.ReportMetric(dp[4], "dp-x0")
		b.ReportMetric(dp[len(dp)-1], "dp-xpos40")
		b.ReportMetric(heu[4], "heu-x0")
	}
}

// BenchmarkAblationSolvers compares decision quality of DP, HEU-OE and
// the naive greedy on the paper's random task sets (ablation B).
func BenchmarkAblationSolvers(b *testing.B) {
	var rows []exp.SolverAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.SolverAblation(1, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanQuality, "quality-"+r.Solver.String())
	}
}

// BenchmarkAblationNaiveEDF compares the paper's deadline splitting
// against naive EDF under an adversarial server (ablation A).
func BenchmarkAblationNaiveEDF(b *testing.B) {
	var rows []exp.NaiveEDFAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.NaiveEDFAblation(7, []float64{0.6, 0.8, 0.95}, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		last := rows[len(rows)-1]
		b.ReportMetric(last.SplitMissRate, "split-missrate@95")
		b.ReportMetric(last.NaiveMissRate, "naive-missrate@95")
	}
}

// BenchmarkAblationDBF compares the Theorem-3 admission test against
// the exact QPA test over the split dbf (ablation C).
func BenchmarkAblationDBF(b *testing.B) {
	var rows []exp.DBFAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.DBFAblation(11, []float64{0.8, 1.1}, 30, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Systems == 0 {
			continue
		}
		b.ReportMetric(float64(r.Theorem3Accepted)/float64(r.Systems), "thm3-accept")
		b.ReportMetric(float64(r.ExactAccepted)/float64(r.Systems), "exact-accept")
	}
}

// BenchmarkDecideDP measures one Offloading Decision Manager run with
// the pseudo-polynomial DP on the paper's 30-task configuration.
func BenchmarkDecideDP(b *testing.B) {
	set, err := task.GenerateFigure3(stats.NewRNG(3), task.DefaultFigure3Params())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decide(set, core.Options{Solver: core.SolverDP}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideHEU measures the HEU-OE heuristic on the same
// configuration — the paper's fast alternative.
func BenchmarkDecideHEU(b *testing.B) {
	set, err := task.GenerateFigure3(stats.NewRNG(3), task.DefaultFigure3Params())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decide(set, core.Options{Solver: core.SolverHEU}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEDFSimulator measures scheduler throughput: a 30-task
// system over a 60 s horizon (~3000 jobs) with offloading and
// compensation paths exercised.
func BenchmarkEDFSimulator(b *testing.B) {
	rng := stats.NewRNG(5)
	set, err := task.GenerateFigure3(rng.Fork(), task.DefaultFigure3Params())
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.Decide(set, core.Options{Solver: core.SolverDP})
	if err != nil {
		b.Fatal(err)
	}
	asgs := dec.Assignments()
	var jobs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sched.Run(sched.Config{
			Assignments: asgs,
			Server:      server.Fixed{Latency: rtime.FromMillis(150)},
			Horizon:     rtime.FromSeconds(60),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Misses != 0 {
			b.Fatalf("%d misses", res.Misses)
		}
		jobs = len(res.Jobs)
	}
	b.ReportMetric(float64(jobs), "jobs/run")
}

// benchSchedAssignments builds a deterministic n-task system for the
// scheduler micro-benchmarks: a mix of local and offloaded tasks whose
// budgets straddle the fixed server latency, so the hit,
// compensation, and preemption paths are all exercised. `util` is the
// nominal total local utilization (above 1 = overload).
func benchSchedAssignments(n int, util float64) []sched.Assignment {
	asgs := make([]sched.Assignment, 0, n)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(int64(20 + 15*(i%10)))
		c := rtime.Duration(util / float64(n) * float64(period))
		if c < 4 {
			c = 4
		}
		tk := &task.Task{
			ID: i, Period: period, Deadline: period,
			LocalWCET: c, LocalBenefit: 1,
		}
		if i%3 == 0 {
			asgs = append(asgs, sched.Assignment{Task: tk})
			continue
		}
		tk.Setup = c/4 + 1
		tk.Compensation = c
		tk.PostProcess = c / 8
		tk.Levels = []task.Level{{Response: period / 3, Benefit: 2}}
		asgs = append(asgs, sched.Assignment{Task: tk, Offload: true})
	}
	return asgs
}

// benchSchedRun is the shared body of the scheduler engine benchmarks:
// one op = one full sched.Run over a 2 s horizon.
func benchSchedRun(b *testing.B, n int, util float64, policy sched.Policy, onMiss sched.MissPolicy, rec bool) {
	cfg := sched.Config{
		Assignments: benchSchedAssignments(n, util),
		Server:      server.Fixed{Latency: rtime.FromMillis(20)},
		Horizon:     rtime.FromSeconds(2),
		Policy:      policy,
		OnMiss:      onMiss,
	}
	var jobs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec {
			cfg.TraceSink = &trace.Trace{}
		}
		res, err := sched.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		jobs = len(res.Jobs)
	}
	b.ReportMetric(float64(jobs), "jobs/run")
}

// benchSchedMatrix fans one policy/miss combination out over the
// 10-/100-task and trace-on/off grid of the engine benchmarks.
func benchSchedMatrix(b *testing.B, util float64, policy sched.Policy, onMiss sched.MissPolicy) {
	for _, n := range []int{10, 100} {
		for _, rec := range []bool{false, true} {
			name := fmt.Sprintf("tasks=%d/notrace", n)
			if rec {
				name = fmt.Sprintf("tasks=%d/trace", n)
			}
			b.Run(name, func(b *testing.B) {
				benchSchedRun(b, n, util, policy, onMiss, rec)
			})
		}
	}
}

// BenchmarkSchedSplitEDF measures the engine on the paper's policy at
// a feasible load: the hot path of every Figure-2/3 sweep.
func BenchmarkSchedSplitEDF(b *testing.B) {
	benchSchedMatrix(b, 0.75, sched.SplitEDF, sched.ContinueLate)
}

// BenchmarkSchedNaiveEDF measures the naive-EDF baseline used by the
// §5.1 ablation.
func BenchmarkSchedNaiveEDF(b *testing.B) {
	benchSchedMatrix(b, 0.75, sched.NaiveEDF, sched.ContinueLate)
}

// BenchmarkSchedAbortAtDeadline measures the firm-deadline overload
// path: a 1.3-utilization system whose jobs are continually aborted,
// stressing the deadline calendar.
func BenchmarkSchedAbortAtDeadline(b *testing.B) {
	benchSchedMatrix(b, 1.3, sched.SplitEDF, sched.AbortAtDeadline)
}

// BenchmarkTheorem3 measures the exact rational schedulability test on
// a 30-task system.
func BenchmarkTheorem3(b *testing.B) {
	rng := stats.NewRNG(9)
	var off []dbf.Offloaded
	var loc []dbf.Sporadic
	for i := 0; i < 15; i++ {
		period := rtime.FromMillis(rng.UniformInt(100, 700))
		c := rtime.Duration(rng.Int64N(int64(period/80))) + 1
		o, err := dbf.NewOffloaded(c, c, period, period, period/4)
		if err != nil {
			b.Fatal(err)
		}
		off = append(off, o)
		s, err := dbf.NewSporadic(c, period, period)
		if err != nil {
			b.Fatal(err)
		}
		loc = append(loc, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := dbf.Theorem3(off, loc); !ok {
			b.Fatal("unexpected rejection")
		}
	}
}

// BenchmarkQPA measures the exact processor-demand test on the same
// system — the tighter admission alternative.
func BenchmarkQPA(b *testing.B) {
	rng := stats.NewRNG(9)
	var ds []dbf.Demand
	for i := 0; i < 15; i++ {
		period := rtime.FromMillis(rng.UniformInt(100, 700))
		c := rtime.Duration(rng.Int64N(int64(period/80))) + 1
		o, err := dbf.NewOffloaded(c, c, period, period, period/4)
		if err != nil {
			b.Fatal(err)
		}
		s, err := dbf.NewSporadic(c, period, period)
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, o, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dbf.QPA(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactUpgrade measures the QPA-driven upgrade pass on random
// sets with large response budgets (where Theorem 3 is pessimistic)
// and reports the mean benefit gain over the Theorem-3 decision. The
// gain is computed once over a fixed set of 64 seeds, so it does not
// depend on b.N; the timed loop cycles through the same sets.
func BenchmarkExactUpgrade(b *testing.B) {
	p := task.DefaultRandomSetParams()
	p.N = 8
	p.TotalUtil = 0.5
	p.RespLoFrac = 0.3
	p.RespHiFrac = 0.8
	upgrade := func(set task.Set) (base, improved *core.Decision) {
		base, err := core.Decide(set, core.Options{Solver: core.SolverDP})
		if err != nil {
			b.Fatal(err)
		}
		improved, err = core.ImproveWithExact(base, set)
		if err != nil {
			b.Fatal(err)
		}
		return base, improved
	}
	sets := make([]task.Set, 64)
	gain := 0.0
	count := 0
	for i := range sets {
		set, err := task.GenerateRandomSet(stats.NewRNG(uint64(i)+1), p)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = set
		if base, improved := upgrade(set); base.TotalExpected > 0 {
			gain += improved.TotalExpected / base.TotalExpected
			count++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upgrade(sets[i%len(sets)])
	}
	if count > 0 {
		b.ReportMetric(gain/float64(count), "gain-vs-thm3")
	}
}

// BenchmarkImproveWithExact isolates the QPA-driven upgrade pass: the
// Theorem-3 decision is computed once outside the loop, so ns/op and
// allocs/op measure only the exact-feasibility search — the hot path
// of every exact ablation and of online re-decision. small is an
// 8-task §6.2 set that takes a few upgrades; large is shaped like an
// admitd large tenant (thirty light near-edge tasks, 1–3 levels each,
// setup C/5 and compensation 4C/5 of the local WCET), where the
// upgrade rounds and their QPA probes dominate a re-decision.
func BenchmarkImproveWithExact(b *testing.B) {
	p := task.DefaultRandomSetParams()
	p.N = 8
	p.TotalUtil = 0.5
	p.RespLoFrac = 0.3
	p.RespHiFrac = 0.8
	small, err := task.GenerateRandomSet(stats.NewRNG(17), p)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		set    task.Set
		solver core.Solver
	}{
		{"small", small, core.SolverDP},
		{"large", lightEdgeSet(stats.NewRNG(29), 30), core.SolverCore},
	} {
		b.Run(tc.name, func(b *testing.B) {
			base, err := core.Decide(tc.set, core.Options{Solver: tc.solver})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var improved *core.Decision
			for i := 0; i < b.N; i++ {
				improved, err = core.ImproveWithExact(base, tc.set)
				if err != nil {
					b.Fatal(err)
				}
			}
			if improved != nil && base.TotalExpected > 0 {
				b.ReportMetric(improved.TotalExpected/base.TotalExpected, "gain-vs-thm3")
			}
		})
	}
}

// lightEdgeSet draws n light offloadable tasks in the admitd
// large-tenant shape: local density 1–5%, so thirty fill most of a
// processor, and one to three offloading levels of increasing budget
// and benefit.
func lightEdgeSet(rng *stats.RNG, n int) task.Set {
	set := make(task.Set, 0, n)
	for len(set) < n {
		period := rtime.FromMillis(rng.UniformInt(20, 800))
		deadline := period
		if rng.Bool(0.25) {
			deadline = period/2 + rtime.Duration(rng.Int64N(int64(period/2)))
		}
		c := rtime.Duration(rng.Uniform(0.01, 0.05)*float64(deadline)) + 1
		tk := &task.Task{
			ID: len(set), Period: period, Deadline: deadline,
			LocalWCET: c, Setup: c/5 + 1, Compensation: c * 4 / 5, PostProcess: c / 8,
			LocalBenefit: rng.Uniform(0, 3),
			Weight:       rng.Uniform(0.5, 3),
		}
		nlv := rng.IntN(3) + 1
		prevR, prevB := rtime.Duration(0), tk.LocalBenefit
		for j := 0; j < nlv; j++ {
			r := prevR + rtime.Duration(rng.Int64N(int64(deadline)))/rtime.Duration(nlv+1) + 1
			b := prevB + rng.Uniform(0.1, 2)
			tk.Levels = append(tk.Levels, task.Level{Response: r, Benefit: b})
			prevR, prevB = r, b
		}
		if tk.Validate() == nil {
			set = append(set, tk)
		}
	}
	return set
}

// BenchmarkAdmissionChurn measures online admission churn: a rolling
// window of tasks where every iteration admits one task and evicts the
// oldest — the Add/Remove re-decision pattern of the online manager.
func BenchmarkAdmissionChurn(b *testing.B) {
	mkTask := func(id int) *task.Task {
		period := rtime.FromMillis(int64(100 + 37*(id%7)))
		c := period / 20
		return &task.Task{
			ID: id, Period: period, Deadline: period,
			LocalWCET: c, Setup: c/4 + 1, Compensation: c,
			LocalBenefit: 1,
			Levels: []task.Level{
				{Response: period / 4, Benefit: 2},
				{Response: period / 2, Benefit: 3},
			},
		}
	}
	a := core.NewAdmission(core.Options{Solver: core.SolverHEU})
	const window = 8
	for id := 0; id < window; id++ {
		if err := a.Add(mkTask(id)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := window + i
		if err := a.Add(mkTask(id)); err != nil {
			b.Fatal(err)
		}
		if ok, err := a.Remove(id - window); err != nil || !ok {
			b.Fatalf("remove %d: ok=%v err=%v", id-window, ok, err)
		}
	}
}

// BenchmarkPartitionScaling measures partitioned decisions across core
// counts and reports the benefit scaling (8 heavy tasks).
func BenchmarkPartitionScaling(b *testing.B) {
	var set task.Set
	for i := 0; i < 8; i++ {
		period := rtime.FromMillis(400)
		set = append(set, &task.Task{
			ID: i, Period: period, Deadline: period,
			LocalWCET: rtime.FromMillis(140), Setup: rtime.FromMillis(4),
			Compensation: rtime.FromMillis(140), LocalBenefit: 1,
			Levels: []task.Level{
				{Response: rtime.FromMillis(60), Benefit: 3},
				{Response: rtime.FromMillis(150), Benefit: 8},
			},
		})
	}
	results := map[int]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cores := range []int{4, 8} {
			d, err := partition.Decide(set, partition.Options{
				Cores: cores, Core: core.Options{Solver: core.SolverDP},
			})
			if err != nil {
				b.Fatal(err)
			}
			results[cores] = d.TotalExpected
		}
	}
	b.ReportMetric(results[4], "benefit-4cores")
	b.ReportMetric(results[8], "benefit-8cores")
}

// BenchmarkBaselineServerFaster contrasts the related-work greedy
// baseline with the paper's decision on a workload where greedy
// over-commits: it reports each policy's deadline-miss count under an
// adversarial server.
func BenchmarkBaselineServerFaster(b *testing.B) {
	var set task.Set
	for i := 0; i < 3; i++ {
		period := rtime.FromMillis(100)
		set = append(set, &task.Task{
			ID: i, Period: period, Deadline: period,
			LocalWCET: rtime.FromMillis(30), Setup: rtime.FromMillis(5),
			Compensation: rtime.FromMillis(30), LocalBenefit: 1,
			Levels: []task.Level{
				{Response: rtime.FromMillis(20), Benefit: 9},
			},
		})
	}
	var greedyMisses, paperMisses int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedy, err := core.DecideServerFaster(set)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sched.Run(sched.Config{
			Assignments: greedy.Assignments(),
			Server:      server.Fixed{Lost: true},
			Horizon:     rtime.FromSeconds(1),
		})
		if err != nil {
			b.Fatal(err)
		}
		greedyMisses = res.Misses
		paper, err := core.Decide(set, core.Options{Solver: core.SolverDP})
		if err != nil {
			b.Fatal(err)
		}
		res, err = sched.Run(sched.Config{
			Assignments: paper.Assignments(),
			Server:      server.Fixed{Lost: true},
			Horizon:     rtime.FromSeconds(1),
		})
		if err != nil {
			b.Fatal(err)
		}
		paperMisses = res.Misses
	}
	b.ReportMetric(float64(greedyMisses), "greedy-misses")
	b.ReportMetric(float64(paperMisses), "paper-misses")
}

// BenchmarkAblationFP compares admission rates of the FP baselines
// (suspension-oblivious / suspension-jitter RTA) against the paper's
// EDF deadline-splitting tests (ablation D).
func BenchmarkAblationFP(b *testing.B) {
	var rows []exp.FPAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.FPAblation(13, []float64{0.4, 0.6, 0.8}, 40, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	var obl, jit, thm, exact, systems int
	for _, r := range rows {
		obl += r.FPOblivious
		jit += r.FPJitter
		thm += r.EDFTheorem3
		exact += r.EDFExact
		systems += r.Systems
	}
	if systems > 0 {
		n := float64(systems)
		b.ReportMetric(float64(obl)/n, "accept-fp-oblivious")
		b.ReportMetric(float64(jit)/n, "accept-fp-jitter")
		b.ReportMetric(float64(thm)/n, "accept-edf-thm3")
		b.ReportMetric(float64(exact)/n, "accept-edf-exact")
	}
}

// BenchmarkEnergyStudy quantifies the intro's energy motivation:
// client-energy savings of the case-study configuration per scenario
// against the all-local baseline.
func BenchmarkEnergyStudy(b *testing.B) {
	var rows []exp.EnergyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.EnergyStudy(benchCaseConfig(), exp.DefaultPowerModel())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Savings, "savings-"+r.Scenario.String())
	}
}

// BenchmarkAdaptive measures the epoch-based adaptive controller on a
// bursty Gilbert server and reports its benefit against freezing the
// first decision.
func BenchmarkAdaptive(b *testing.B) {
	ms := rtime.FromMillis
	mkSet := func() task.Set {
		var set task.Set
		for i := 1; i <= 2; i++ {
			set = append(set, &task.Task{
				ID: i, Period: ms(200), Deadline: ms(200),
				LocalWCET: ms(40), Setup: ms(3), Compensation: ms(40),
				LocalBenefit: 1,
				Levels: []task.Level{
					{Response: ms(20), Benefit: 6, PayloadBytes: 1000},
					{Response: ms(60), Benefit: 6.5, PayloadBytes: 1000},
				},
			})
		}
		return set
	}
	gcfg := server.GilbertConfig{
		GoodDuration: rtime.FromSeconds(4), BadDuration: rtime.FromSeconds(4),
		GoodLatency: ms(8), BadLatency: ms(120), Sigma: 0.1,
	}
	var adaptive float64
	for i := 0; i < b.N; i++ {
		srv, err := server.NewGilbert(stats.NewRNG(33), gcfg)
		if err != nil {
			b.Fatal(err)
		}
		epochs, err := core.AdaptiveRun(mkSet(), srv, core.AdaptiveConfig{
			Epoch:     rtime.FromSeconds(2),
			Epochs:    10,
			Estimator: core.EstimatorConfig{Probes: 12, Spacing: ms(5), Quantile: 0.9},
			Solver:    core.SolverDP,
		}, stats.NewRNG(3))
		if err != nil {
			b.Fatal(err)
		}
		adaptive = 0
		for _, e := range epochs {
			if e.Sim.Misses != 0 {
				b.Fatal("adaptive epoch missed deadlines")
			}
			adaptive += e.Sim.TotalBenefit
		}
	}
	b.ReportMetric(adaptive, "adaptive-benefit")
}

// admitdChurnOp applies one churn operation to the full-rebuild
// reference: tentative set edit, then a from-scratch core.Decide —
// the per-arrival cost the pre-incremental admission manager paid.
func admitdChurnRebuildOp(set task.Set, o admitd.Op, opts core.Options) (task.Set, bool) {
	var next task.Set
	switch o.Kind {
	case admitd.OpAdmit:
		next = append(set.Clone(), o.Task)
	case admitd.OpUpdate:
		next = set.Clone()
		for i, t := range next {
			if t.ID == o.ID {
				next[i] = o.Task
			}
		}
	default:
		next = make(task.Set, 0, len(set))
		for _, t := range set.Clone() {
			if t.ID != o.ID {
				next = append(next, t)
			}
		}
	}
	if _, err := core.Decide(next, opts); err != nil {
		return set, false
	}
	return next, true
}

// benchAdmitdChurn drives the deterministic admitd churn stream
// through either the incremental core.Admission path or the
// full-rebuild reference, after priming a steady-state live set.
func benchAdmitdChurn(b *testing.B, opts core.Options, incremental bool) {
	const seed, maxLive, prime = 7, 10, 60
	st := admitd.NewStream(seed, maxLive)
	if incremental {
		a := core.NewAdmission(opts)
		apply := func(o admitd.Op) {
			var err error
			switch o.Kind {
			case admitd.OpAdmit:
				err = a.Add(o.Task)
			case admitd.OpUpdate:
				err = a.Update(o.Task)
			default:
				_, err = a.Remove(o.ID)
			}
			st.Commit(o, err == nil)
		}
		for i := 0; i < prime; i++ {
			apply(st.Next())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apply(st.Next())
		}
		return
	}
	var set task.Set
	apply := func(o admitd.Op) {
		next, ok := admitdChurnRebuildOp(set, o, opts)
		set = next
		st.Commit(o, ok)
	}
	for i := 0; i < prime; i++ {
		apply(st.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(st.Next())
	}
}

// BenchmarkAdmitdChurn compares the per-operation cost of online
// admission churn on the incremental path (persistent caches +
// analyzer deltas) against the from-scratch rebuild the admission
// manager used to pay, with and without the exact-upgrade pass. The
// operation streams are identical, so ns/op is directly comparable.
func BenchmarkAdmitdChurn(b *testing.B) {
	for _, tc := range []struct {
		name        string
		opts        core.Options
		incremental bool
	}{
		{"rebuild", core.Options{Solver: core.SolverDP}, false},
		{"rebuild-exact", core.Options{Solver: core.SolverDP, ExactUpgrade: true}, false},
		{"incremental", core.Options{Solver: core.SolverDP}, true},
		{"incremental-exact", core.Options{Solver: core.SolverDP, ExactUpgrade: true}, true},
		{"rebuild-heu-exact", core.Options{Solver: core.SolverHEU, ExactUpgrade: true}, false},
		{"incremental-heu-exact", core.Options{Solver: core.SolverHEU, ExactUpgrade: true}, true},
		{"rebuild-core-exact", core.Options{Solver: core.SolverCore, ExactUpgrade: true}, false},
		{"incremental-core", core.Options{Solver: core.SolverCore}, true},
		{"incremental-core-exact", core.Options{Solver: core.SolverCore, ExactUpgrade: true}, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchAdmitdChurn(b, tc.opts, tc.incremental)
		})
	}
}

// BenchmarkAdmitdService measures one operation through the full
// admission service — shard lookup, locking, incremental re-decision,
// view rendering — with four tenants churning round-robin.
func BenchmarkAdmitdService(b *testing.B) {
	const tenants = 4
	s := admitd.New(core.Options{Solver: core.SolverDP, ExactUpgrade: true})
	streams := make([]*admitd.Stream, tenants)
	names := make([]string, tenants)
	for i := range streams {
		streams[i] = admitd.NewStream(uint64(i)+1, 10)
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	apply := func(i int) {
		st := streams[i%tenants]
		o := st.Next()
		var err error
		switch o.Kind {
		case admitd.OpAdmit:
			_, err = s.Admit(names[i%tenants], o.Task)
		case admitd.OpUpdate:
			_, err = s.Update(names[i%tenants], o.Task)
		default:
			_, err = s.Evict(names[i%tenants], o.ID)
		}
		st.Commit(o, err == nil)
	}
	for i := 0; i < 15*tenants; i++ {
		apply(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(i)
	}
}
