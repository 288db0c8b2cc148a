// Package invariant is the hard-guarantee property harness: it runs
// randomized (task set × fault schedule) trials through the paper's
// full pipeline — Offloading Decision Manager admission (package
// core), EDF deadline-splitting simulation (package sched), chaos
// fault injection (package chaos) — and machine-checks the paper's
// theorems as executable predicates:
//
//	I1  An admitted configuration never misses a deadline, under any
//	    fault schedule (Theorems 1–3: the compensation path bounds the
//	    demand regardless of server behavior).
//	I2  Local compensation starts exactly at the Ri timer when the
//	    result is absent; post-processing starts no later than Ri
//	    after the offload request (§5.1's timer interrupt).
//	I3  The realized benefit is never below the all-local baseline —
//	    per job and in aggregate (Gi is non-decreasing and the
//	    compensation path earns at least Gi(0)).
//	I4  The execution trace satisfies the independent EDF invariant
//	    checker of package trace (trace.StreamChecker).
//	I5  The scheduler's per-task accounting is coherent: every
//	    released job finishes, and outcomes partition the job count.
//
// Each trial derives every random draw from one uint64 seed via
// stats.DeriveSeed, so any reported violation reproduces from its
// seed alone; the injected fault schedule is additionally recorded
// and replayable (chaos.Schedule / chaos.Player).
//
//rtlint:allow reach -- harness: the I1–I6 property harness, run by tests; the invariant checker on the ROADMAP ships it
package invariant

import (
	"errors"
	"fmt"

	"rtoffload/internal/chaos"
	"rtoffload/internal/core"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// Stream ids for DeriveSeed; appended only, never renumbered (the
// trial identity is part of every reported seed).
const (
	streamTaskSet uint64 = iota + 1
	streamDecision
	streamServer
	streamChaos
	streamSim
	streamFleetSpec
	streamFleetChaos
	streamFleetServer
)

// Trial is one fully resolved randomized trial: the generated system,
// its admitted decision, the fault configuration, and the simulation
// parameters. Build it with NewTrial, run it with Run.
type Trial struct {
	Seed     uint64
	Set      task.Set
	Decision *core.Decision
	Chaos    chaos.Config
	Horizon  rtime.Duration
	Jitter   rtime.Duration

	// spec resolves the wrapped component model deterministically
	// (newInner can be called any number of times and always builds an
	// identical server).
	spec componentSpec
}

// componentSpec is a fully resolved recipe for one unreliable
// component: building it any number of times yields identically
// seeded fresh instances. Fleet trials hold one spec per server.
type componentSpec struct {
	kind     int
	seed     uint64
	cfg      server.QueueConfig
	fixedLat rtime.Duration
}

// randomComponent draws a component recipe spanning all four wrapped
// models, with latency scales tied to the task periods.
func randomComponent(rng *stats.RNG, maxPeriod rtime.Duration) componentSpec {
	var sp componentSpec
	sp.kind = rng.IntN(4)
	sp.seed = rng.Uint64()
	sp.fixedLat = rtime.Duration(rng.Int64N(int64(maxPeriod)) + 1)
	sp.cfg = server.QueueConfig{
		Workers:              1 + rng.IntN(3),
		BandwidthBytesPerSec: 1_000_000 + rng.Int64N(9_000_000),
		NetLatencyMean:       rtime.Duration(rng.Int64N(int64(rtime.FromMillis(8))) + 1),
		NetLatencySigma:      rng.Float64(),
		ServiceMean:          rtime.Duration(rng.Int64N(int64(rtime.FromMillis(20))) + 1),
		ServiceRefBytes:      10_000,
		ServiceJitter:        0.3 * rng.Float64(),
		BackgroundRatePerSec: 40 * rng.Float64(),
		BackgroundServiceMean: rtime.Duration(
			rng.Int64N(int64(rtime.FromMillis(60))) + 1),
		LossProbability: 0.2 * rng.Float64(),
	}
	return sp
}

// build constructs the component. Every call returns an identically
// seeded fresh instance, which is what lets the all-pass identity
// check run the same workload twice.
func (sp componentSpec) build() (server.Server, error) {
	switch sp.kind {
	case 0:
		return server.Fixed{Latency: sp.fixedLat}, nil
	case 1:
		return server.Fixed{Lost: true}, nil
	case 2:
		return server.NewQueue(stats.NewRNG(sp.seed), sp.cfg)
	default:
		// A reservation-backed component: latency capped at half the
		// shortest budget in the set (when one exists), so the
		// guaranteed-hit path gets exercised too.
		bound := sp.fixedLat/2 + 1
		inner, err := server.NewQueue(stats.NewRNG(sp.seed), sp.cfg)
		if err != nil {
			return nil, err
		}
		return server.Bounded{Inner: inner, Bound: bound}, nil
	}
}

// NewTrial derives a randomized trial from its seed: a random task
// set admitted by the Offloading Decision Manager, a random unreliable
// component, and a random fault configuration. It returns ok=false
// when the drawn system has nothing to simulate (the decision manager
// can reject nothing — UUniFast keeps all-local feasible — but the
// guard stays for robustness).
func NewTrial(seed uint64) (*Trial, bool, error) {
	rng := stats.NewRNG(stats.DeriveSeed(seed, streamTaskSet))
	set, err := randomSet(rng)
	if err != nil {
		return nil, false, fmt.Errorf("invariant: seed %d: %w", seed, err)
	}

	decRNG := stats.NewRNG(stats.DeriveSeed(seed, streamDecision))
	opts := core.Options{Solver: core.SolverDP}
	if decRNG.Bool(0.5) {
		opts.Solver = core.SolverHEU
	}
	opts.ExactUpgrade = decRNG.Bool(0.3)
	dec, err := core.Decide(set, opts)
	if errors.Is(err, core.ErrInfeasible) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("invariant: seed %d: %w", seed, err)
	}

	maxPeriod := rtime.Duration(0)
	for _, t := range set {
		if t.Period > maxPeriod {
			maxPeriod = t.Period
		}
	}

	tr := &Trial{
		Seed:     seed,
		Set:      set,
		Decision: dec,
		Horizon:  3 * maxPeriod,
	}

	srvRNG := stats.NewRNG(stats.DeriveSeed(seed, streamServer))
	tr.spec = randomComponent(srvRNG, maxPeriod)

	chaosRNG := stats.NewRNG(stats.DeriveSeed(seed, streamChaos))
	tr.Chaos = randomChaos(chaosRNG, maxPeriod)

	simRNG := stats.NewRNG(stats.DeriveSeed(seed, streamSim))
	if simRNG.Bool(0.5) {
		tr.Jitter = rtime.Duration(simRNG.Int64N(int64(maxPeriod/4)) + 1)
	}
	return tr, true, nil
}

// randomSet draws the randomized task system shared by single-server
// and fleet trials: UUniFast utilizations keep the all-local fallback
// feasible, so admission can always return something to simulate.
func randomSet(rng *stats.RNG) (task.Set, error) {
	params := task.RandomSetParams{
		N:           2 + rng.IntN(5),
		TotalUtil:   0.3 + 0.6*rng.Float64(),
		PeriodLoMS:  20,
		PeriodHiMS:  200,
		Q:           1 + rng.IntN(3),
		SetupFrac:   0.1 + 0.2*rng.Float64(),
		RespLoFrac:  0.15 + 0.15*rng.Float64(),
		RespHiFrac:  0.5 + 0.4*rng.Float64(),
		BenefitBase: 1,
	}
	return task.GenerateRandomSet(rng, params)
}

// randomChaos draws a fault configuration spanning all-pass to
// hostile. Delay bounds scale with the task periods so the faults
// stress the compensation path instead of merely saturating it.
func randomChaos(rng *stats.RNG, period rtime.Duration) chaos.Config {
	dur := func(frac float64) rtime.Duration {
		max := int64(frac * float64(period))
		if max < 1 {
			max = 1
		}
		return rtime.Duration(rng.Int64N(max) + 1)
	}
	cfg := chaos.Config{}
	if rng.Bool(0.1) {
		return cfg // all-pass trials keep the no-fault path honest
	}
	if rng.Bool(0.6) {
		cfg.Drop = rng.Float64()
	}
	if rng.Bool(0.4) {
		cfg.Dup = rng.Float64()
		cfg.DupDelayMax = dur(0.5)
	}
	if rng.Bool(0.4) {
		cfg.Reorder = rng.Float64()
		cfg.ReorderDelayMax = dur(0.5)
	}
	if rng.Bool(0.5) {
		cfg.Spike = rng.Float64()
		cfg.SpikeMax = dur(1.0)
	}
	if rng.Bool(0.3) {
		cfg.Hang = 0.2 * rng.Float64()
		cfg.HangMax = dur(1.5)
	}
	if rng.Bool(0.4) {
		cfg.GE = chaos.GilbertElliott{
			PGoodBad:    rng.Float64(),
			PBadGood:    0.05 + 0.95*rng.Float64(),
			BadLoss:     rng.Float64(),
			BadDelayMax: dur(0.5),
		}
	}
	if rng.Bool(0.3) {
		cfg.SkewBound = dur(0.05)
	}
	return cfg
}

// newInner builds the trial's unreliable component from its spec.
func (tr *Trial) newInner() (server.Server, error) {
	return tr.spec.build()
}

// SimConfig assembles the scheduler configuration around a server.
// It records no trace; set TraceSink to stream or materialize one.
func (tr *Trial) SimConfig(srv server.Server) sched.Config {
	return sched.Config{
		Assignments:   tr.Decision.Assignments(),
		Server:        srv,
		Horizon:       tr.Horizon,
		Policy:        sched.SplitEDF,
		ReleaseJitter: tr.Jitter,
		RNG:           stats.NewRNG(stats.DeriveSeed(tr.Seed, streamSim, 1)),
	}
}

// Simulate runs the trial once under its fault schedule with the
// trace streaming to sink (nil records none), returning the raw result
// and the recorded fault schedule for replay. It checks no invariant
// beyond what sink verifies — Run does. A violation reported by a
// StreamChecker sink comes back as the error, already naming the
// seed, with the schedule still returned.
func (tr *Trial) Simulate(sink trace.Sink) (*sched.Result, *chaos.Schedule, error) {
	inner, err := tr.newInner()
	if err != nil {
		return nil, nil, fmt.Errorf("invariant: seed %d: %w", tr.Seed, err)
	}
	inj, err := chaos.New(inner, tr.Chaos, stats.NewRNG(stats.DeriveSeed(tr.Seed, streamChaos, 1)))
	if err != nil {
		return nil, nil, fmt.Errorf("invariant: seed %d: %w", tr.Seed, err)
	}
	rec := inj.StartRecording()
	cfg := tr.SimConfig(inj)
	cfg.TraceSink = sink
	res, err := sched.Run(cfg)
	return res, rec, err
}

// Run simulates the trial under its fault schedule and checks every
// invariant, returning the recorded fault schedule for replay. The
// trace streams through a StreamChecker (I4, I2), so it never
// materializes; the per-job log is kept, so CheckAggregates runs its
// per-job I1/I3 checks too. The returned error is the first violation
// (or an infrastructure error).
func (tr *Trial) Run() (*chaos.Schedule, error) {
	res, rec, err := tr.Simulate(NewStreamChecker(tr))
	if err != nil {
		return rec, err
	}
	return rec, tr.CheckAggregates(res)
}

// jobKey identifies one job across its sub-job records.
type jobKey struct {
	task int
	seq  int64
}

// fail prefixes a violation with the trial's reproduction seed.
func (tr *Trial) fail(format string, args ...any) error {
	return fmt.Errorf("invariant: seed %d: %s", tr.Seed, fmt.Sprintf(format, args...))
}

// CheckResult asserts invariants I1–I5 against a simulation result
// and the trace the caller recorded for it (a *trace.Trace passed as
// Config.TraceSink): the aggregates as in Run, then I4 and I2 by
// replaying the trace through the same StreamChecker Run streams into.
func (tr *Trial) CheckResult(res *sched.Result, recorded *trace.Trace) error {
	if err := tr.CheckAggregates(res); err != nil {
		return err
	}
	if recorded == nil {
		return tr.fail("I4: trial ran without a trace")
	}
	return recorded.Replay(NewStreamChecker(tr))
}

// offloadBudgets maps each offloaded task to its response budget Ri.
func (tr *Trial) offloadBudgets() map[int]rtime.Duration {
	budgets := make(map[int]rtime.Duration, len(tr.Decision.Choices))
	for _, c := range tr.Decision.Choices {
		if c.Offload {
			budgets[c.Task.ID] = c.Budget()
		}
	}
	return budgets
}

// checkSecondPhase is the per-record I2 predicate StreamChecker
// applies as each second phase closes: compensation releases exactly
// at the Ri timer, post-processing within [setup-done, setup-done+Ri].
func (tr *Trial) checkSecondPhase(rec *trace.SubRecord, done rtime.Instant, haveSetup bool, budgets map[int]rtime.Duration) error {
	switch rec.Sub.Kind {
	case trace.Comp:
		if !haveSetup {
			return tr.fail("I2: compensation for %v without a completed setup", rec.Sub)
		}
		budget, ok := budgets[rec.Sub.TaskID]
		if !ok {
			return tr.fail("I2: compensation for non-offloaded task %d", rec.Sub.TaskID)
		}
		if want := done.Add(budget); rec.Release != want {
			return tr.fail("I2: compensation for %v released at %v, want the Ri timer at %v",
				rec.Sub, rec.Release, want)
		}
	case trace.Post:
		if !haveSetup {
			return tr.fail("I2: post-processing for %v without a completed setup", rec.Sub)
		}
		budget := budgets[rec.Sub.TaskID]
		if rec.Release < done || rec.Release > done.Add(budget) {
			return tr.fail("I2: post-processing for %v released at %v outside [%v, %v]",
				rec.Sub, rec.Release, done, done.Add(budget))
		}
	}
	return nil
}

// CheckAggregates asserts the invariants that read only the result's
// aggregate fields — I1 (hard guarantee), I3 (benefit floor), I5
// (accounting coherence). The per-job loops cover whatever the run
// retained; with Config.DiscardJobResults they reduce to the aggregate
// checks, which is exactly what campaign cells keep.
func (tr *Trial) CheckAggregates(res *sched.Result) error {
	// I1 — hard guarantee: zero misses for the admitted set.
	if res.Misses != 0 {
		return tr.fail("I1: %d deadline misses under fault schedule", res.Misses)
	}
	locals := make(map[int]float64, len(tr.Decision.Choices))
	levels := make(map[int]float64, len(tr.Decision.Choices))
	for _, c := range tr.Decision.Choices {
		locals[c.Task.ID] = c.Task.LocalBenefit
		if c.Offload {
			levels[c.Task.ID] = c.Task.Levels[c.Level].Benefit
		}
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.Missed || !j.Finished {
			return tr.fail("I1: job τ%d#%d missed (finished=%v)", j.TaskID, j.Seq, j.Finished)
		}
		if j.Finish > j.Deadline {
			return tr.fail("I1: job τ%d#%d finished at %v past deadline %v", j.TaskID, j.Seq, j.Finish, j.Deadline)
		}
		// I3 — benefit floor: every job earns at least the local
		// baseline; hits earn exactly the level benefit.
		if j.Benefit < locals[j.TaskID] {
			return tr.fail("I3: job τ%d#%d earned %g below local baseline %g",
				j.TaskID, j.Seq, j.Benefit, locals[j.TaskID])
		}
		if j.Outcome == sched.OffloadHit && j.Benefit != levels[j.TaskID] {
			return tr.fail("I3: hit τ%d#%d earned %g, want level benefit %g",
				j.TaskID, j.Seq, j.Benefit, levels[j.TaskID])
		}
	}
	if res.TotalBenefit < res.TotalBaseline*(1-1e-12) {
		return tr.fail("I3: total benefit %g below all-local baseline %g",
			res.TotalBenefit, res.TotalBaseline)
	}

	// I5 — accounting coherence per task.
	for _, c := range tr.Decision.Choices {
		st := res.PerTask[c.Task.ID]
		if st == nil {
			return tr.fail("I5: task %d has no stats", c.Task.ID)
		}
		if st.Released != st.Finished {
			return tr.fail("I5: task %d released %d but finished %d", c.Task.ID, st.Released, st.Finished)
		}
		if st.Hits+st.Compensations+st.LocalRuns != st.Finished {
			return tr.fail("I5: task %d outcomes %d+%d+%d do not partition %d jobs",
				c.Task.ID, st.Hits, st.Compensations, st.LocalRuns, st.Finished)
		}
		if !c.Offload && (st.Hits != 0 || st.Compensations != 0) {
			return tr.fail("I5: local task %d has offload outcomes", c.Task.ID)
		}
		if st.Misses != 0 || st.Aborted != 0 || st.BoundViolations != 0 {
			return tr.fail("I5: task %d misses=%d aborted=%d boundViolations=%d",
				c.Task.ID, st.Misses, st.Aborted, st.BoundViolations)
		}
	}
	return nil
}

// Check runs one full randomized trial from its seed: derive, admit,
// simulate under chaos, and verify I1–I5 with the trace streamed
// through the one-pass checker. Skipped (infeasible) trials return
// nil.
func Check(seed uint64) error {
	tr, ok, err := NewTrial(seed)
	if err != nil || !ok {
		return err
	}
	_, err = tr.Run()
	return err
}

// AllPassPair serves the bit-identity guarantee: the trial's workload
// run through an all-pass Injector must produce a Result — including
// per-task statistics — and a trace deep-equal to the same workload
// run against the unwrapped server. It runs both, streaming the
// wrapped run's trace to wrappedSink and the bare run's to bareSink
// (pass two *trace.Trace to compare full traces); the caller compares.
func (tr *Trial) AllPassPair(wrappedSink, bareSink trace.Sink) (wrapped, bare *sched.Result, err error) {
	inner, err := tr.newInner()
	if err != nil {
		return nil, nil, err
	}
	inj, err := chaos.New(inner, chaos.Config{}, stats.NewRNG(stats.DeriveSeed(tr.Seed, streamChaos, 2)))
	if err != nil {
		return nil, nil, err
	}
	cfg := tr.SimConfig(inj)
	cfg.TraceSink = wrappedSink
	wrapped, err = sched.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	inner2, err := tr.newInner()
	if err != nil {
		return nil, nil, err
	}
	cfg = tr.SimConfig(inner2)
	cfg.TraceSink = bareSink
	bare, err = sched.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return wrapped, bare, nil
}
