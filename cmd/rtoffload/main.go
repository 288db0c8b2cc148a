// Command rtoffload analyzes, decides and simulates offloading
// configurations for JSON task sets.
//
// Subcommands:
//
//	rtoffload gen [-seed N] [-n N] > tasks.json
//	    Generate a random task set (the paper's §6.2 generator).
//
//	rtoffload analyze tasks.json
//	    Print per-task parameters, the all-local utilization and the
//	    exact schedulability verdicts.
//
//	rtoffload decide [-solver core|dp|heu|brute|greedy] tasks.json
//	    Run the Offloading Decision Manager and print the selected
//	    configuration with its Theorem-3 total.
//
//	rtoffload simulate [-solver ...] [-horizon SECONDS] [-scenario busy|not-busy|idle|lost|cdf]
//	          [-onmiss continue|abort] [-gantt MS] [-exact] [-decision file] [-seed N] tasks.json
//	    Decide (or replay a saved decision), then run the EDF simulator
//	    against the chosen server model and report per-task outcome
//	    statistics, optionally with an ASCII Gantt chart.
//
//	rtoffload partition [-cores N] [-strategy worst-fit|first-fit|best-fit] [-solver ...] tasks.json
//	    Partition the set over identical cores and run the per-core
//	    Offloading Decision Manager.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtoffload/internal/benefit"
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

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "decide":
		err = cmdDecide(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Stdout, os.Args[2:])
	case "partition":
		err = cmdPartition(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtoffload:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rtoffload gen|analyze|decide|simulate|partition [flags] [tasks.json]")
	os.Exit(2)
}

func cmdPartition(args []string) error {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	solver := solverFlag(fs)
	cores := fs.Int("cores", 2, "number of identical processors")
	strategy := fs.String("strategy", "worst-fit", "placement: worst-fit | first-fit | best-fit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sv, err := parseSolver(*solver)
	if err != nil {
		return err
	}
	var strat partition.Strategy
	switch *strategy {
	case "worst-fit":
		strat = partition.WorstFit
	case "first-fit":
		strat = partition.FirstFit
	case "best-fit":
		strat = partition.BestFit
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	set, err := loadSet(fs.Args())
	if err != nil {
		return err
	}
	dec, err := partition.Decide(set, partition.Options{
		Cores: *cores, Strategy: strat, Core: core.Options{Solver: sv},
	})
	if err != nil {
		return err
	}
	var rows [][]string
	for c, pc := range dec.PerCore {
		if pc == nil {
			rows = append(rows, []string{fmt.Sprintf("%d", c), "0", "-", "-", "-"})
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", c),
			fmt.Sprintf("%d", len(pc.Choices)),
			fmt.Sprintf("%d", pc.OffloadedCount()),
			pc.Theorem3Total.FloatString(4),
			fmt.Sprintf("%.4g", pc.TotalExpected),
		})
	}
	if err := exp.WriteTable(os.Stdout,
		[]string{"Core", "Tasks", "Offloaded", "Theorem3", "Expected"}, rows); err != nil {
		return err
	}
	fmt.Printf("\n%d cores, %v placement: offloaded %d tasks, total expected benefit %.4f\n",
		*cores, strat, dec.OffloadedCount(), dec.TotalExpected)
	return nil
}

func loadSet(args []string) (task.Set, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("expected exactly one task-set file, got %d args", len(args))
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return task.ReadJSON(f)
}

func solverFlag(fs *flag.FlagSet) *string {
	return fs.String("solver", "dp", "decision solver: dp | heu | brute | greedy | bnb | core | server-faster")
}

func parseSolver(s string) (core.Solver, error) {
	switch s {
	case "dp":
		return core.SolverDP, nil
	case "heu":
		return core.SolverHEU, nil
	case "brute":
		return core.SolverBrute, nil
	case "greedy":
		return core.SolverGreedy, nil
	case "bnb":
		return core.SolverBnB, nil
	case "core":
		return core.SolverCore, nil
	case "server-faster":
		return core.SolverServerFaster, nil
	default:
		return 0, fmt.Errorf("unknown solver %q", s)
	}
}

// decide runs the selected decision procedure; exact upgrades the
// decision with the exact processor-demand test (ignored by the
// server-faster baseline, which runs no schedulability test).
func decide(set task.Set, solver core.Solver, exact bool) (*core.Decision, error) {
	if solver == core.SolverServerFaster {
		return core.DecideServerFaster(set)
	}
	return core.Decide(set, core.Options{Solver: solver, ExactUpgrade: exact})
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "generator seed")
	n := fs.Int("n", 30, "number of tasks")
	kind := fs.String("kind", "fig3", "generator: fig3 (paper §6.2) | random (UUniFast)")
	util := fs.Float64("util", 0.6, "total local utilization for -kind random")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var set task.Set
	var err error
	switch *kind {
	case "fig3":
		p := task.DefaultFigure3Params()
		p.N = *n
		set, err = task.GenerateFigure3(stats.NewRNG(*seed), p)
	case "random":
		p := task.DefaultRandomSetParams()
		p.N = *n
		p.TotalUtil = *util
		set, err = task.GenerateRandomSet(stats.NewRNG(*seed), p)
	default:
		return fmt.Errorf("unknown generator %q", *kind)
	}
	if err != nil {
		return err
	}
	return set.WriteJSON(os.Stdout)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, err := loadSet(fs.Args())
	if err != nil {
		return err
	}
	var rows [][]string
	var loc []dbf.Sporadic
	for _, t := range set {
		s, err := dbf.NewSporadic(t.LocalWCET, t.Deadline, t.Period)
		if err != nil {
			return err
		}
		loc = append(loc, s)
		rows = append(rows, []string{
			fmt.Sprintf("%d", t.ID),
			t.Name,
			t.LocalWCET.String(),
			t.Setup.String(),
			t.Compensation.String(),
			t.Deadline.String(),
			t.Period.String(),
			fmt.Sprintf("%d", len(t.Levels)),
			t.Utilization().FloatString(4),
		})
	}
	if err := exp.WriteTable(os.Stdout,
		[]string{"ID", "Name", "C", "C1", "C2", "D", "T", "Levels", "C/T"}, rows); err != nil {
		return err
	}
	u := set.TotalUtilization()
	fmt.Printf("\nall-local utilization: %s\n", u.FloatString(4))
	total, ok := dbf.Theorem3(nil, loc)
	fmt.Printf("Theorem 3 (all-local): total %s, schedulable: %v\n", total.FloatString(4), ok)
	ds := make([]dbf.Demand, len(loc))
	for i, s := range loc {
		ds[i] = s
	}
	az, err := dbf.NewAnalyzer(ds)
	if err != nil {
		return err
	}
	if err := az.Feasible(); err != nil {
		fmt.Printf("exact QPA test (all-local): REJECTED: %v\n", err)
	} else {
		fmt.Println("exact QPA test (all-local): passed")
	}
	return nil
}

func cmdDecide(args []string) error {
	fs := flag.NewFlagSet("decide", flag.ExitOnError)
	solver := solverFlag(fs)
	exact := fs.Bool("exact", false, "upgrade the decision with the exact QPA admission test")
	out := fs.String("o", "", "also write the decision as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sv, err := parseSolver(*solver)
	if err != nil {
		return err
	}
	set, err := loadSet(fs.Args())
	if err != nil {
		return err
	}
	dec, err := decide(set, sv, *exact)
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := dec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, c := range dec.Choices {
		mode := "local"
		budget := "-"
		if c.Offload {
			mode = fmt.Sprintf("offload L%d", c.Level+1)
			budget = c.Budget().String()
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Task.ID), c.Task.Name, mode, budget,
			fmt.Sprintf("%.4g", c.Expected),
		})
	}
	if err := exp.WriteTable(os.Stdout,
		[]string{"ID", "Name", "Decision", "Ri", "Expected"}, rows); err != nil {
		return err
	}
	fmt.Printf("\nsolver: %v   offloaded: %d/%d   expected benefit: %.4f\n",
		dec.Solver, dec.OffloadedCount(), len(dec.Choices), dec.TotalExpected)
	switch {
	case dec.ExactVerified:
		fmt.Printf("Theorem 3 total: %s — feasibility certified by the exact QPA test\n", dec.Theorem3Total.FloatString(6))
	case dec.Solver == core.SolverServerFaster:
		fmt.Printf("Theorem 3 total: %s — baseline runs NO schedulability test\n", dec.Theorem3Total.FloatString(6))
	default:
		fmt.Printf("Theorem 3 total: %s (≤ 1 guaranteed)\n", dec.Theorem3Total.FloatString(6))
	}
	if dec.Repaired > 0 {
		fmt.Printf("repaired choices: %d\n", dec.Repaired)
	}
	return nil
}

func cmdSimulate(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	solver := solverFlag(fs)
	horizon := fs.Float64("horizon", 10, "simulation horizon in seconds")
	scenario := fs.String("scenario", "cdf", "server model: cdf | busy | not-busy | idle | lost")
	seed := fs.Uint64("seed", 1, "simulation seed")
	gantt := fs.Int("gantt", 0, "render an ASCII Gantt chart of the first N milliseconds")
	exact := fs.Bool("exact", false, "upgrade the decision with the exact QPA admission test")
	onMiss := fs.String("onmiss", "continue", "overrun policy: continue | abort")
	decisionFile := fs.String("decision", "", "replay a saved decision instead of deciding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var missPolicy sched.MissPolicy
	switch *onMiss {
	case "continue":
		missPolicy = sched.ContinueLate
	case "abort":
		missPolicy = sched.AbortAtDeadline
	default:
		return fmt.Errorf("unknown overrun policy %q", *onMiss)
	}
	sv, err := parseSolver(*solver)
	if err != nil {
		return err
	}
	set, err := loadSet(fs.Args())
	if err != nil {
		return err
	}
	var dec *core.Decision
	if *decisionFile != "" {
		f, err := os.Open(*decisionFile)
		if err != nil {
			return err
		}
		dec, err = core.ReadDecisionJSON(f, set)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		dec, err = decide(set, sv, *exact)
		if err != nil {
			return err
		}
	}
	rng := stats.NewRNG(*seed)
	var srv server.Server
	switch *scenario {
	case "cdf":
		// Ground truth follows each task's own benefit CDF — only
		// meaningful when benefits are probabilities.
		samplers := map[int]server.ResponseSampler{}
		for _, t := range set {
			if t.Offloadable() && benefit.FromTask(t).ValidProbability() {
				samplers[t.ID] = benefit.FromTask(t)
			}
		}
		if len(samplers) == 0 {
			return fmt.Errorf("cdf scenario needs probability-valued benefit functions; try -scenario idle")
		}
		srv = server.NewCDF(rng.Fork(), samplers)
	case "busy":
		srv, err = server.NewScenario(rng.Fork(), server.Busy)
	case "not-busy":
		srv, err = server.NewScenario(rng.Fork(), server.NotBusy)
	case "idle":
		srv, err = server.NewScenario(rng.Fork(), server.Idle)
	case "lost":
		srv = server.Fixed{Lost: true}
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		return err
	}
	cfg := sched.Config{
		Assignments: dec.Assignments(),
		Server:      srv,
		Horizon:     rtime.FromSeconds(*horizon),
		OnMiss:      missPolicy,
	}
	var tr trace.Trace
	if *gantt > 0 {
		cfg.TraceSink = &tr
	}
	res, err := sched.Run(cfg)
	if err != nil {
		return err
	}
	if *gantt > 0 {
		if err := trace.RenderGantt(w, &tr, 0,
			rtime.Instant(rtime.FromMillis(int64(*gantt))), 100); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	var rows [][]string
	for _, c := range dec.Choices {
		st := res.PerTask[c.Task.ID]
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Task.ID), c.Task.Name,
			fmt.Sprintf("%d", st.Released),
			fmt.Sprintf("%d", st.Hits),
			fmt.Sprintf("%d", st.Compensations),
			fmt.Sprintf("%d", st.LocalRuns),
			fmt.Sprintf("%d", st.Misses),
			st.WorstLatency.String(),
		})
	}
	if err := exp.WriteTable(w,
		[]string{"ID", "Name", "Jobs", "Hits", "Comps", "Local", "Misses", "WorstResp"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nhorizon %gs   scenario %s   deadline misses: %d\n", *horizon, *scenario, res.Misses)
	fmt.Fprintf(w, "total weighted benefit: %.4f (baseline %.4f, normalized %.4f)\n",
		res.TotalBenefit, res.TotalBaseline, res.NormalizedBenefit())
	return nil
}
