package main

// The campaign workloads run exp.RunCampaign in-process, as a sweep user
// would: every round is one complete grid on two workers with a JSONL
// checkpoint, and setup is a resume of that checkpoint. The traced pass
// computes the grid one cell per RunCampaign call and rebuilds each cell
// from its seed streams (cellTwin) to time core.Decide and sched.Run
// alone; the rebuilt cell must reproduce RunCampaign's record exactly.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"rtoffload/internal/chaos"
	"rtoffload/internal/core"
	"rtoffload/internal/dbf"
	"rtoffload/internal/exp"
	"rtoffload/internal/fleet"
	"rtoffload/internal/mckp"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

const (
	// setup_s is the median over resumeBatches of the mean time of
	// resumesPerBatch checkpoint resumes.
	resumeBatches, resumesPerBatch = 21, 20
	// benefitRounds is how many grids benefit_mean averages; a run
	// sweeps at least this many.
	benefitRounds = 8
	// roundSalt derives each round's grid seed from the workload seed.
	roundSalt uint64 = 0xca4b
	// streamCampaign is internal/exp's stream ID for campaign cells;
	// cellTwin derives the same RNG streams from it.
	streamCampaign uint64 = 13
)

// campaignConfig spells out RunCampaign's default axes and horizon, so
// cellTwin sees the values the cells run with.
func campaignConfig(name string, seed uint64, checkpoint string) exp.CampaignConfig {
	cfg := exp.CampaignConfig{Seed: seed, TaskSets: 1, Tasks: 4000,
		Scenarios:   []server.Scenario{server.Busy, server.NotBusy, server.Idle},
		FaultScales: []float64{0, 0.5, 1}, Horizon: rtime.FromMillis(2000),
		Parallel: conns, Checkpoint: checkpoint}
	if name == "campaign-fleet" {
		cfg.Tasks = 48
		cfg.Scenarios, cfg.FleetScenarios = nil, exp.FleetScenarioNames()
	}
	return cfg
}

// gridSLO is the latency limit of one grid round: about 1.5× the p90
// grid latency of the commit that introduced the benchmark (275 ms
// fleet, 895 ms sim, median over seeds 1–3; see FINDINGS.md), so
// slo_frac falls once the grid's tail grows by half.
func gridSLO(name string) time.Duration {
	if name == "campaign-fleet" {
		return 420 * time.Millisecond
	}
	return 1350 * time.Millisecond
}

// checkGrid verifies a complete grid: every cell recorded once, every
// released job finished, and no deadline miss on fleet cells, whose
// systems the decision manager admitted. RunCampaign itself fails a cell
// whose streamed trace the one-pass checker rejects.
func checkGrid(r *result, cfg exp.CampaignConfig, res *exp.CampaignResult) {
	if !res.Complete() {
		r.violate("grid incomplete: %d of %d cells", len(res.Cells), res.Total)
		return
	}
	for i, c := range res.Cells {
		if c.Cell != i {
			r.violate("cell %d recorded at position %d", c.Cell, i)
		}
		if c.Jobs == 0 || c.Finished != c.Jobs {
			r.violate("cell %d finished %d of %d released jobs", c.Cell, c.Finished, c.Jobs)
		}
		if len(cfg.FleetScenarios) > 0 && c.Misses != 0 {
			r.violate("fleet cell %d (%s) missed %d deadlines", c.Cell, c.Scenario, c.Misses)
		}
	}
}

func gridStats(res *exp.CampaignResult) (benefit, missFrac float64) {
	jobs, misses := 0, 0
	for _, c := range res.Cells {
		benefit += c.Benefit
		jobs += c.Jobs
		misses += c.Misses
	}
	return benefit / float64(len(res.Cells)), float64(misses) / math.Max(1, float64(jobs))
}

func runCampaignE2E(o *options) (*result, error) {
	r := newResult()
	ckpt := filepath.Join(o.work, o.workload+".ckpt.jsonl")
	if err := os.Remove(ckpt); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	cfg := campaignConfig(o.workload, o.seed, ckpt)
	ref, err := exp.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	checkGrid(r, cfg, ref)
	attempted := ref.Computed

	var setups []float64
	for b := 0; b < resumeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < resumesPerBatch; i++ {
			res, err := exp.RunCampaign(cfg)
			if err != nil {
				return nil, err
			}
			if res.Computed != 0 || !reflect.DeepEqual(res.Cells, ref.Cells) {
				r.violate("a resume recomputed %d cells or changed a record", res.Computed)
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/resumesPerBatch)
	}

	// Each round sweeps a fresh grid drawn from the round's own seed, so
	// a run averages over many task sets; round 0 repeats the reference.
	var lats, rates []float64
	var busy time.Duration
	rss := sampleRSS("self")
	slo, inSLO := gridSLO(o.workload), 0
	benefit, benefitCells, jobs, misses := 0.0, 0, 0, 0
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for round := 0; round < benefitRounds || time.Now().Before(deadline); round++ {
		if err := os.Remove(ckpt); err != nil {
			return nil, err
		}
		rc := cfg
		if round > 0 {
			rc.Seed = stats.DeriveSeed(o.seed, roundSalt, uint64(round))
		}
		// Start every grid from a collected heap, as a fresh sweep
		// process would, so peak RSS measures one grid's working set.
		runtime.GC()
		t0 := time.Now()
		res, err := exp.RunCampaign(rc)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		attempted += res.Computed
		checkGrid(r, rc, res)
		if round == 0 && !reflect.DeepEqual(res.Cells, ref.Cells) {
			r.violate("a second run of the reference grid differs from the first")
		}
		for _, c := range res.Cells {
			if round < benefitRounds {
				benefit += c.Benefit
				benefitCells++
			}
			jobs += c.Jobs
			misses += c.Misses
		}
		busy += d
		lats = append(lats, ms(d))
		rates = append(rates, float64(res.Computed)/d.Seconds())
		if d <= slo {
			inSLO++
		}
	}
	peak, err := rss.peak()
	if err != nil {
		return nil, err
	}
	r.attempted = attempted
	r.set("setup_s", median(setups))
	r.set("ops_per_s", interquartileMean(rates))
	p50, p90 := slicedPercentiles(lats)
	r.set("lat_p50_ms", p50)
	r.set("lat_p90_ms", p90)
	r.set("slo_frac", float64(inSLO)/float64(len(lats)))
	r.set("benefit_mean", benefit/float64(benefitCells))
	r.set("peak_rss_mb", peak)
	r.note("workload %s seed %d: %d-cell grids × %d rounds (one latency sample each) on %d workers, %.2fs busy",
		o.workload, o.seed, ref.Total, len(lats), cfg.Parallel, busy.Seconds())
	r.note("metric %-34s %14.6f frac", "miss_frac", float64(misses)/math.Max(1, float64(jobs)))
	return r, nil
}

// cellTwin rebuilds one campaign cell from its seed streams, mirroring
// internal/exp's runCell and runFleetCell, so its layers can be timed
// one by one.
type cellTwin struct {
	cfg        exp.CampaignConfig
	base       chaos.Config
	cell       int
	ts, si, fi int
}

func newCellTwin(cfg exp.CampaignConfig, base chaos.Config, cell int) cellTwin {
	nf, ns := len(cfg.FaultScales), len(cfg.Scenarios)
	if len(cfg.FleetScenarios) > 0 {
		ns = len(cfg.FleetScenarios)
	}
	return cellTwin{cfg: cfg, base: base, cell: cell,
		fi: cell % nf, si: (cell / nf) % ns, ts: cell / (nf * ns)}
}

func (c cellTwin) rng(stream uint64) *stats.RNG {
	return stats.NewRNG(stats.DeriveSeed(c.cfg.Seed, streamCampaign,
		uint64(c.ts), uint64(c.si), uint64(c.fi), stream))
}

// fleetFor mirrors exp's fleet scenario shapes.
func fleetFor(name string) fleet.Fleet {
	edge := fleet.Server{ID: "edge"}
	mid := fleet.Server{ID: "mid", Extra: rtime.FromMillis(1)}
	cloud := fleet.Server{ID: "cloud", ScaleNum: 3, ScaleDen: 2,
		Extra: rtime.FromMillis(2), Reliability: 0.9, WeightNum: 1, WeightDen: 2}
	f := fleet.Fleet{}
	switch name {
	case "hot":
		edge.CapNum, edge.CapDen = 1, 4
		edge.Group, mid.Group = "radio", "radio"
		f.Groups = []fleet.Group{{ID: "radio", CapNum: 1, CapDen: 2}}
	case "skew":
		edge.ScaleNum, edge.ScaleDen = 1, 2
		cloud.ScaleNum, cloud.ScaleDen = 2, 1
	}
	f.Servers = []fleet.Server{edge, mid, cloud}
	return f
}

// fleetSet mirrors exp's fleet cell task draw.
func fleetSet(rng *stats.RNG, n int) task.Set {
	shares := rng.UUniFast(n, 0.6)
	set := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(20, 400))
		cwc := rtime.Duration(shares[i] * float64(period))
		if cwc < 2 {
			cwc = 2
		}
		tk := &task.Task{ID: i, Period: period, Deadline: period, LocalWCET: cwc, LocalBenefit: 1}
		if i%3 == 0 {
			tk.Setup, tk.Compensation, tk.PostProcess = cwc/4+1, cwc, cwc/6
			tk.Levels = []task.Level{
				{Response: rtime.Duration(float64(period) * 0.35), Benefit: 2},
				{Response: rtime.Duration(float64(period) * 0.6), Benefit: 2.5},
			}
		}
		set = append(set, tk)
	}
	return set
}

// simSystem mirrors exp's single-server cell system draw.
func simSystem(rng *stats.RNG, n int) []sched.Assignment {
	shares := rng.UUniFast(n, 0.6)
	asgs := make([]sched.Assignment, 0, n)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(20, 400))
		c := rtime.Duration(shares[i] * float64(period))
		if c < 2 {
			c = 2
		}
		tk := &task.Task{ID: i, Period: period, Deadline: period, LocalWCET: c, LocalBenefit: 1}
		if i%3 == 0 {
			tk.Setup, tk.Compensation, tk.PostProcess = c/4+1, c, c/6
			tk.Levels = []task.Level{{Response: rtime.Duration(float64(period) * 0.4), Benefit: 2}}
			asgs = append(asgs, sched.Assignment{Task: tk, Offload: true})
		} else {
			asgs = append(asgs, sched.Assignment{Task: tk})
		}
	}
	return asgs
}

// servers builds fresh (stateful) fault-injected servers for one run.
func (c cellTwin) servers(fl fleet.Fleet) (server.Server, map[string]server.Server, error) {
	scale := c.cfg.FaultScales[c.fi]
	if len(c.cfg.FleetScenarios) == 0 {
		srv, err := server.NewScenario(c.rng(2), c.cfg.Scenarios[c.si])
		if err != nil {
			return nil, nil, err
		}
		inj, err := chaos.New(srv, c.base.Scale(scale), c.rng(3))
		return inj, nil, err
	}
	name := c.cfg.FleetScenarios[c.si]
	kinds := []server.Scenario{server.Idle, server.NotBusy, server.Busy}
	out := make(map[string]server.Server, len(fl.Servers))
	for i, s := range fl.Servers {
		inner, err := server.NewScenario(c.rng(uint64(10+i)), kinds[i%len(kinds)])
		if err != nil {
			return nil, nil, err
		}
		cfg := c.base.Scale(scale)
		if name == "degrade" && i == 0 {
			cfg.GE = chaos.GilbertElliott{PGoodBad: 0.6, PBadGood: 0.1, BadLoss: 0.9, BadDelayMax: c.cfg.Horizon / 8}
		}
		inj, err := chaos.New(inner, cfg, c.rng(uint64(20+i)))
		if err != nil {
			return nil, nil, err
		}
		out[s.ID] = inj
		if name == "failover" && i == 0 {
			out[s.ID] = server.FailAfter{Inner: inj, At: rtime.Instant(c.cfg.Horizon / 2)}
		}
	}
	return nil, out, nil
}

// cellLayers is what one traced cell measured.
type cellLayers struct {
	rec      exp.CellResult
	segments int64
}

// trace runs the cell's layers under spans: the fleet decision (with
// and without the fleet), the MCKP solves and demand tests on the fleet
// instance, and sched.Run with the checker sink, without a sink, and on
// forced heap and wheel queues. The four runs must agree.
func (c cellTwin) trace(tr *tracer, r *result, root int32, id int64) (cellLayers, error) {
	var out cellLayers
	out.rec = exp.CellResult{Cell: c.cell, TaskSet: c.ts, Fault: c.cfg.FaultScales[c.fi]}
	var asgs []sched.Assignment
	var fl fleet.Fleet
	if len(c.cfg.FleetScenarios) > 0 {
		name := c.cfg.FleetScenarios[c.si]
		out.rec.Scenario = name
		fl = fleetFor(name)
		set := fleetSet(c.rng(1), c.cfg.Tasks)
		var dec *core.Decision
		var err error
		tr.timed("core.decide."+name, root, id, func() { dec, err = core.Decide(set, core.Options{Solver: core.SolverDP, Fleet: fl}) })
		if err != nil {
			return out, fmt.Errorf("fleet decision: %w", err)
		}
		tr.timed("core.decide_nofleet", root, id, func() { _, err = core.Decide(set, core.Options{Solver: core.SolverDP}) })
		if err != nil {
			return out, fmt.Errorf("single-server decision: %w", err)
		}
		if err := c.traceSolvers(tr, r, root, id, fl, set, dec); err != nil {
			return out, err
		}
		asgs = dec.Assignments()
		out.rec.Offloaded = dec.OffloadedCount()
	} else {
		out.rec.Scenario = c.cfg.Scenarios[c.si].String()
		asgs = simSystem(c.rng(1), c.cfg.Tasks)
	}

	variants := []struct {
		span  string
		queue sched.QueueMode
		sink  bool
	}{
		{"sched.run", sched.AutoQueue, true},
		{"sched.run_nosink", sched.AutoQueue, false},
		{"eventq.heap_run", sched.ForceHeap, true},
		{"eventq.wheel_run", sched.ForceWheel, true},
	}
	var first *sched.Result
	for _, v := range variants {
		srv, srvs, err := c.servers(fl)
		if err != nil {
			return out, err
		}
		run := sched.Config{Assignments: asgs, Server: srv, Servers: srvs, Horizon: c.cfg.Horizon,
			Policy: sched.SplitEDF, EventQueue: v.queue, DiscardJobResults: true}
		var checker *trace.StreamChecker
		if v.sink {
			checker = trace.NewStreamChecker()
			run.TraceSink = checker
		}
		var res *sched.Result
		tr.timed(v.span, root, id, func() { res, err = sched.Run(run) })
		if err != nil {
			return out, fmt.Errorf("%s: %w", v.span, err)
		}
		if first == nil {
			first = res
			out.segments, _ = checker.Counts()
		} else if res.Misses != first.Misses || res.TotalBenefit != first.TotalBenefit ||
			res.CPUBusy != first.CPUBusy || res.Makespan != first.Makespan {
			r.violate("cell %d: %s disagrees with sched.run", c.cell, v.span)
		}
	}
	out.rec.Misses = first.Misses
	out.rec.Benefit = first.NormalizedBenefit()
	out.rec.CPUBusy = int64(first.CPUBusy)
	out.rec.Makespan = int64(first.Makespan)
	for id := 0; id < c.cfg.Tasks; id++ {
		if st := first.PerTask[id]; st != nil {
			out.rec.Jobs += st.Released
			out.rec.Finished += st.Finished
		}
	}
	return out, nil
}

// traceSolvers times the default and core MCKP solvers on the cell's
// fleet-expanded §5.2 instance and the demand tests on its decision.
func (c cellTwin) traceSolvers(tr *tracer, r *result, root int32, id int64, fl fleet.Fleet, set task.Set, dec *core.Decision) error {
	expanded, err := fl.ExpandSet(set)
	if err != nil {
		return err
	}
	in, err := mckpInstance(expanded)
	if err != nil {
		return err
	}
	var sol, coreSol mckp.Solution
	var solErr, coreErr error
	tr.timed("mckp.solve", root, id, func() { sol, solErr = mckp.SolveDP(in, 0) })
	tr.timed("mckp.solve_core", root, id, func() { coreSol, coreErr = solveCore(in) })
	if solErr != nil || coreErr != nil {
		r.violate("cell %d MCKP solve: %v / core: %v", c.cell, solErr, coreErr)
	} else if coreSol.Profit < sol.Profit-1e-9*math.Max(1, math.Abs(sol.Profit)) {
		r.violate("cell %d: exact core solver profit %v below DP profit %v", c.cell, coreSol.Profit, sol.Profit)
	}
	ds, off, loc, err := demandsOf(dec.Choices)
	if err != nil {
		return err
	}
	var feasErr, qpaErr error
	tr.timed("dbf.feasible", root, id, func() {
		az, err := dbf.NewAnalyzer(ds)
		if err == nil {
			err = az.Feasible()
		}
		feasErr = err
	})
	tr.timed("dbf.qpa", root, id, func() { qpaErr = dbf.QPA(ds) })
	tr.timed("dbf.theorem3", root, id, func() { dbf.Theorem3(off, loc) })
	if feasErr != nil || qpaErr != nil {
		r.violate("cell %d fleet decision fails the demand test: %v / %v", c.cell, feasErr, qpaErr)
	}
	return nil
}

func runCampaignTraced(o *options) (*result, error) {
	r := newResult()
	base, err := chaos.Preset("heavy")
	if err != nil {
		return nil, err
	}
	cfg := campaignConfig(o.workload, o.seed, "")
	ref, err := exp.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	checkGrid(r, cfg, ref)
	_, missFrac := gridStats(ref)
	r.attempted = ref.Computed

	// single computes one cell per RunCampaign call: each call resumes
	// the checkpoint and takes the first pending cell.
	ckpt := filepath.Join(o.work, o.workload+".traced.ckpt.jsonl")
	single := cfg
	single.Checkpoint, single.Limit, single.Parallel = ckpt, 1, 1
	var cellTimes []float64 // single-cell calls, ms
	var jobs, segments float64
	var wall time.Duration // whole-grid calls on cfg.Parallel workers
	tr := newTracer()
	// pass computes the grid once whole, then cell by cell, rebuilding
	// every cell beside its RunCampaign call.
	pass := func(n int64) error {
		t0 := time.Now()
		grid, err := exp.RunCampaign(cfg)
		wall += time.Since(t0)
		if err != nil {
			return err
		}
		r.attempted += grid.Computed
		if !reflect.DeepEqual(grid.Cells, ref.Cells) {
			r.violate("a repeated run of the grid differs from the first")
		}
		if err := os.Remove(ckpt); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		for cell := 0; cell < ref.Total; cell++ {
			id := n<<32 | int64(cell)
			root := tr.begin("cell", -1, id)
			var res *exp.CampaignResult
			var err error
			d := tr.timed("exp.cell", root, id, func() { res, err = exp.RunCampaign(single) })
			if err != nil {
				return err
			}
			r.attempted++
			if res.Computed != 1 || len(res.Cells) != cell+1 || res.Cells[cell] != ref.Cells[cell] {
				r.violate("single-cell call %d did not reproduce the grid's record", cell)
			}
			cellTimes = append(cellTimes, ms(d))
			got, err := newCellTwin(cfg, base, cell).trace(tr, r, root, id)
			if err != nil {
				return fmt.Errorf("cell %d twin: %w", cell, err)
			}
			if got.rec != ref.Cells[cell] {
				r.violate("cell %d rebuilt as %+v, RunCampaign recorded %+v", cell, got.rec, ref.Cells[cell])
			}
			jobs += float64(got.rec.Jobs)
			segments += float64(got.segments)
			tr.end(root)
		}
		return nil
	}
	var passes int64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for passes == 0 || time.Now().Before(deadline) {
		if err := pass(passes); err != nil {
			return nil, err
		}
		passes++
	}
	if err := tr.write(o.work, o.workload); err != nil {
		return nil, err
	}

	sum, n := tr.layerTotals()
	cells := float64(len(cellTimes))
	perCell := func(name string) float64 { return ms(sum[name]) / cells }
	perCall := func(name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return us(sum[name]) / float64(n[name])
	}
	var decide time.Duration
	if len(cfg.FleetScenarios) > 0 {
		for _, name := range cfg.FleetScenarios {
			key := "core.decide." + name
			decide += sum[key]
			r.set("core.decide_ms."+name, ms(sum[key])/float64(n[key]))
		}
		r.set("core.decide_nofleet_ms", perCell("core.decide_nofleet"))
		r.set("core.fleet_overhead_ms", ms(decide)/cells-perCell("core.decide_nofleet"))
		r.set("mckp.solve_us", perCall("mckp.solve"))
		r.set("mckp.solve_core_us", perCall("mckp.solve_core"))
		r.set("dbf.feasible_us", perCall("dbf.feasible"))
		r.set("dbf.qpa_us", perCall("dbf.qpa"))
		r.set("dbf.theorem3_us", perCall("dbf.theorem3"))
	}
	run, nosink := perCell("sched.run"), perCell("sched.run_nosink")
	r.set("sched.run_ms", run)
	r.set("sched.run_nosink_ms", nosink)
	r.set("trace.check_ms", run-nosink)
	r.set("eventq.heap_run_ms", perCell("eventq.heap_run"))
	r.set("eventq.wheel_run_ms", perCell("eventq.wheel_run"))
	r.set("sched.jobs_per_cell", jobs/cells)
	r.set("trace.segments_per_cell", segments/cells)
	r.set("sched.miss_frac", missFrac)
	r.set("exp.cell_ms.p50", stats.Percentile(cellTimes, 50))
	r.set("exp.cell_ms.p99", stats.Percentile(cellTimes, 99))
	// Σ single-cell time over the whole-grid wall time × workers, both
	// summed over the same passes.
	r.set("exp.parallel_eff", sum["exp.cell"].Seconds()/(wall.Seconds()*float64(cfg.Parallel)))
	parts := map[string]float64{"sched.run": run}
	if decide > 0 {
		parts["core.decide"] = ms(decide) / cells
	}
	r.set("exp.cell.unattributed_frac", sumCheck(r, "cell", perCell("exp.cell"), parts))
	r.set("bench.trace_overhead_frac", tr.overheadFrac())
	r.note("workload %s seed %d traced: %d-cell grid in %.3fs mean on %d workers; %d traced passes, %d single-cell calls",
		o.workload, o.seed, ref.Total, wall.Seconds()/float64(passes), cfg.Parallel, passes, len(cellTimes))
	return r, nil
}
