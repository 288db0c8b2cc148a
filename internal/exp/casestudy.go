// Package exp contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (§6) plus the ablations
// called out in DESIGN.md:
//
//   - Table 1: the benefit functions Gi(ri) of the four robot-vision
//     tasks (PSNR per scaling level, probed response budgets).
//   - Figure 2: the case study — normalized total weighted image
//     quality over 24 task-weight permutations under three
//     server-load scenarios.
//   - Figure 3: the simulation study — normalized total benefit of the
//     DP and HEU-OE deciders under estimation-accuracy ratios in
//     [−40 %, +40 %].
//   - Ablations: deadline splitting vs naive EDF, solver quality and
//     runtime, and Theorem-3 vs exact-dbf admission.
//
// Absolute numbers differ from the paper (its testbed was physical);
// the harness reproduces the shapes: who wins, by what factor, and
// where the curves bend.
package exp

import (
	"fmt"
	"math"

	"rtoffload/internal/chaos"
	"rtoffload/internal/core"
	"rtoffload/internal/imgproc"
	"rtoffload/internal/parallel"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// CaseStudyConfig parameterizes the §6.1 reproduction.
type CaseStudyConfig struct {
	Seed uint64
	// Parallel bounds the worker pool the sweeps fan out on
	// (0 = GOMAXPROCS, 1 = sequential). Results are bit-identical for
	// every value: all randomness is derived per work item with
	// stats.DeriveSeed, independent of execution order.
	Parallel int
	// FrameW/H is the camera resolution the robot captures.
	FrameW, FrameH int
	// LocalUtil is the per-task local utilization Ci/Ti the image
	// ladder is sized for (paper: the four tasks are locally feasible,
	// so 4·LocalUtil must stay below 1).
	LocalUtil float64
	// Fractions is the offload scaling ladder (strictly increasing,
	// ending at 1.0 for the full-resolution level).
	Fractions []float64
	// Probes/Quantile drive the Benefit and Response Time Estimator.
	Probes   int
	Quantile float64
	// HorizonSeconds is the measurement window (paper: 10 s).
	HorizonSeconds float64
	// Solver used by the Offloading Decision Manager.
	Solver core.Solver
	// Chaos, when enabled, wraps every simulated server in the fault
	// injector (the zero value is the all-pass config and leaves the
	// sweep bit-identical to an unwrapped run).
	Chaos chaos.Config
}

// DefaultCaseStudyConfig returns the calibrated configuration
// described in EXPERIMENTS.md.
func DefaultCaseStudyConfig() CaseStudyConfig {
	return CaseStudyConfig{
		Seed:      1,
		FrameW:    800,
		FrameH:    600,
		LocalUtil: 0.2,
		Fractions: []float64{0.55, 0.7, 0.85, 1.0},
		Probes:    400,
		// Budgets are the *median* latency of the nominal (not-busy)
		// server: the three scenarios then land on sharply different
		// regions of their latency distributions — busy mostly misses
		// the budget, not-busy hits about half, idle nearly always
		// hits — which is exactly the paper's "small number / a part /
		// a large number of offloaded tasks get results".
		Quantile:       0.55,
		HorizonSeconds: 10,
		Solver:         core.SolverDP,
	}
}

// caseApp describes one of the four applications: the vision kernel it
// runs, the computational density of its full pipeline (the kernel is
// the inner loop of a multi-stage pipeline — multi-baseline stereo,
// multi-scale edge extraction, descriptor matching, dense motion), and
// its relative deadline.
type caseApp struct {
	name     string
	kernel   imgproc.Kernel
	opsPerPx float64
	deadline rtime.Duration
}

func caseApps() []caseApp {
	return []caseApp{
		{"Stereo Vision", imgproc.KernelStereo, 3400, rtime.FromMillis(1800)},
		{"Edge Detection", imgproc.KernelEdge, 3000, rtime.FromMillis(1800)},
		{"Object recognition", imgproc.KernelRecognition, 4200, rtime.FromMillis(2000)},
		{"Motion Detection", imgproc.KernelMotion, 2600, rtime.FromMillis(2000)},
	}
}

// caseServerConfig returns the queueing-server configuration of the
// case study for a load scenario. Compared to the generic presets it
// models a slower wireless link (raw frames are large) and service
// times matched to the pipeline densities.
func CaseServerConfig(s server.Scenario) (server.QueueConfig, error) {
	cfg, err := server.ScenarioConfig(s)
	if err != nil {
		return server.QueueConfig{}, err
	}
	cfg.BandwidthBytesPerSec = 2_500_000 // ≈20 Mbit/s effective
	cfg.ServiceMean = rtime.FromMillis(12)
	cfg.ServiceRefBytes = 300 * 200
	// Sharpen the load contrast relative to the generic presets: the
	// busy server is saturated enough that offloaded frames rarely
	// return within a median-of-nominal budget, while the not-busy
	// server queues them behind a ~60 % background load.
	switch s {
	case server.Busy:
		cfg.BackgroundRatePerSec = 42
		cfg.BackgroundServiceMean = rtime.FromMillis(85)
		cfg.LossProbability = 0.12
	case server.NotBusy:
		cfg.BackgroundRatePerSec = 20
		cfg.BackgroundServiceMean = rtime.FromMillis(60)
	}
	return cfg, nil
}

// caseScenarios is the case study's server-load axis, in table order.
var caseScenarios = []server.Scenario{server.Busy, server.NotBusy, server.Idle}

// caseServer builds the case-study queueing server for a scenario,
// seeded from (seed, stream, scenario, idx...).
func caseServer(s server.Scenario, seed, stream uint64, idx ...uint64) (*server.Queue, error) {
	cfg, err := CaseServerConfig(s)
	if err != nil {
		return nil, err
	}
	key := append([]uint64{stream, uint64(s)}, idx...)
	return server.NewQueue(stats.NewRNG(stats.DeriveSeed(seed, key...)), cfg)
}

// CaseTasks builds the four case-study tasks: the local image size is
// set so each task's local utilization is cfg.LocalUtil; each offload
// level ships a larger frame whose PSNR (measured by the real scaling
// round trip) is the benefit value; response budgets are probed
// against the nominal (not-busy) server.
func CaseTasks(cfg CaseStudyConfig) (task.Set, error) {
	if cfg.FrameW <= 0 || cfg.FrameH <= 0 || cfg.LocalUtil <= 0 || cfg.LocalUtil*4 >= 1 {
		return nil, fmt.Errorf("exp: invalid case-study config")
	}
	rng := stats.NewRNG(cfg.Seed)
	model := imgproc.DefaultCostModel()
	set := make(task.Set, 0, 4)
	for i, app := range caseApps() {
		frame := imgproc.Synthetic(rng.Fork(), cfg.FrameW, cfg.FrameH)
		// Local fraction: CPU time at f equals LocalUtil·D.
		fullOps := app.opsPerPx * float64(cfg.FrameW) * float64(cfg.FrameH)
		fullCPU := fullOps / model.CPUOpsPerSec // seconds
		fLocal := math.Sqrt(cfg.LocalUtil * app.deadline.Seconds() / fullCPU)
		if fLocal >= cfg.Fractions[0] {
			fLocal = cfg.Fractions[0] * 0.9
		}
		lw := int(float64(cfg.FrameW)*fLocal + 0.5)
		lh := int(float64(cfg.FrameH)*fLocal + 0.5)
		if lw < 1 || lh < 1 {
			return nil, fmt.Errorf("exp: local frame for %s degenerate", app.name)
		}
		localCPU := rtime.FromSeconds(fullCPU * fLocal * fLocal)
		down := frame.Resize(lw, lh)
		localPSNR := imgproc.PSNR(frame, down.Resize(cfg.FrameW, cfg.FrameH))

		specs, err := imgproc.BuildLevels(model, app.kernel, frame, cfg.Fractions)
		if err != nil {
			return nil, err
		}
		t := &task.Task{
			ID:           i + 1,
			Name:         app.name,
			Period:       app.deadline,
			Deadline:     app.deadline,
			LocalWCET:    localCPU,
			Setup:        model.SetupTime(lw, lh), // overridden per level below
			Compensation: localCPU,
			LocalBenefit: localPSNR,
			Weight:       1,
		}
		prevR := rtime.Duration(0)
		prevB := localPSNR
		for j, sp := range specs {
			// Pipeline CPU time at this level (for documentation the
			// spec's kernel CPU time scales with the pipeline density).
			b := sp.PSNR
			if b <= prevB {
				b = prevB + 0.01 // measured PSNR ladder is strictly increasing in practice
			}
			prevB = b
			// Placeholder budgets; EstimateBudgets overwrites them.
			r := rtime.FromMillis(int64(100 * (j + 1)))
			if r <= prevR {
				r = prevR + 1
			}
			prevR = r
			t.Levels = append(t.Levels, task.Level{
				Label:        fmt.Sprintf("%dx%d", sp.W, sp.H),
				Response:     r,
				Benefit:      b,
				Setup:        sp.Setup,
				PayloadBytes: sp.Payload,
			})
		}
		set = append(set, t)
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("exp: case tasks invalid: %w", err)
	}
	// Probe the nominal server for response budgets (§6.1.2's
	// coarse-grained statistic estimation).
	nominal, err := CaseServerConfig(server.NotBusy)
	if err != nil {
		return nil, err
	}
	probeSrv, err := server.NewQueue(stats.NewRNG(cfg.Seed+1000), nominal)
	if err != nil {
		return nil, err
	}
	est := core.EstimatorConfig{Probes: cfg.Probes, Spacing: rtime.FromMillis(500), Quantile: cfg.Quantile}
	if err := core.EstimateBudgets(probeSrv, set, est); err != nil {
		return nil, err
	}
	return set, nil
}

// Table1Row is one row of the regenerated Table 1.
type Table1Row struct {
	Task      string
	LocalPSNR float64
	Budgets   []rtime.Duration
	PSNRs     []float64
}

// Table1 regenerates the paper's Table 1: per task, Gi(0) and the
// (ri,j, Gi(ri,j)) ladder.
func Table1(cfg CaseStudyConfig) ([]Table1Row, error) {
	set, err := CaseTasks(cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(set))
	for _, t := range set {
		r := Table1Row{Task: t.Name, LocalPSNR: t.LocalBenefit}
		for _, lv := range t.Levels {
			r.Budgets = append(r.Budgets, lv.Response)
			r.PSNRs = append(r.PSNRs, lv.Benefit)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Figure2Point is one bar of Figure 2: work set × scenario →
// normalized total weighted image quality.
type Figure2Point struct {
	WorkSet  int
	Weights  [4]float64
	Scenario server.Scenario
	// Normalized is Σ weight·quality achieved over the horizon divided
	// by the all-local baseline Σ weight·Gi(0).
	Normalized float64
	Offloaded  int
	Misses     int
}

// Figure2Result holds the full case-study sweep.
type Figure2Result struct {
	Tasks  task.Set
	Points []Figure2Point
}

// Series extracts the normalized values of one scenario in work-set
// order.
func (r *Figure2Result) Series(s server.Scenario) []float64 {
	var out []float64
	for _, p := range r.Points {
		if p.Scenario == s {
			out = append(out, p.Normalized)
		}
	}
	return out
}

// permutations4 enumerates the 24 orderings of {1,2,3,4}.
func permutations4() [][4]float64 {
	base := []float64{1, 2, 3, 4}
	var out [][4]float64
	var rec func(cur []float64, rest []float64)
	rec = func(cur, rest []float64) {
		if len(rest) == 0 {
			var w [4]float64
			copy(w[:], cur)
			out = append(out, w)
			return
		}
		for i, v := range rest {
			nr := append(append([]float64{}, rest[:i]...), rest[i+1:]...)
			rec(append(cur, v), nr)
		}
	}
	rec(nil, base)
	return out
}

// Figure2 runs the case study: for each of the 24 weight permutations
// ("work sets") the Offloading Decision Manager picks levels and
// budgets via MCKP; the resulting configuration runs for the horizon
// under each of the three server scenarios; qualities are normalized
// to the all-local baseline of the same weights.
func Figure2(cfg CaseStudyConfig) (*Figure2Result, error) {
	set, err := CaseTasks(cfg)
	if err != nil {
		return nil, err
	}
	perms := permutations4()
	horizon := rtime.FromSeconds(cfg.HorizonSeconds)
	points, err := parallel.Map(cfg.Parallel, len(caseScenarios)*len(perms), func(i int) (Figure2Point, error) {
		scenario := caseScenarios[i/len(perms)]
		wi := i % len(perms)
		weights := perms[wi]
		ws := set.Clone()
		for k := range ws {
			ws[k].Weight = weights[k]
		}
		dec, err := core.Decide(ws, core.Options{Solver: cfg.Solver})
		if err != nil {
			return Figure2Point{}, fmt.Errorf("exp: work set %d: %w", wi+1, err)
		}
		var srv server.Server
		srv, err = caseServer(scenario, cfg.Seed, streamFigure2, uint64(wi))
		if err != nil {
			return Figure2Point{}, err
		}
		if cfg.Chaos.Enabled() {
			wrapSeed := stats.DeriveSeed(cfg.Seed, streamChaosWrap, uint64(scenario), uint64(wi))
			srv, err = chaos.New(srv, cfg.Chaos, stats.NewRNG(wrapSeed))
			if err != nil {
				return Figure2Point{}, err
			}
		}
		sim, err := sched.Run(sched.Config{
			Assignments: dec.Assignments(),
			Server:      srv,
			Horizon:     horizon,
		})
		if err != nil {
			return Figure2Point{}, err
		}
		return Figure2Point{
			WorkSet:    wi + 1,
			Weights:    weights,
			Scenario:   scenario,
			Normalized: sim.NormalizedBenefit(),
			Offloaded:  dec.OffloadedCount(),
			Misses:     sim.Misses,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure2Result{Tasks: set, Points: points}, nil
}
