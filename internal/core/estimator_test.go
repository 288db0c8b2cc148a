package core

import (
	"math"
	"testing"

	"rtoffload/internal/benefit"
	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// benefitOf adapts a task's levels into a response sampler.
func benefitOf(t *task.Task) server.ResponseSampler { return benefit.FromTask(t) }

func TestEstimatorConfigValidate(t *testing.T) {
	good := EstimatorConfig{Probes: 10, Spacing: ms(10), Quantile: 0.9}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []EstimatorConfig{
		{Probes: 0, Spacing: ms(1), Quantile: 0.5},
		{Probes: 1, Spacing: 0, Quantile: 0.5},
		{Probes: 1, Spacing: ms(1), Quantile: 0},
		{Probes: 1, Spacing: ms(1), Quantile: 1.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestEstimateBudgetsFixedServer(t *testing.T) {
	set := twoTaskSet()
	set[0].Levels[0].PayloadBytes = 1000
	set[0].Levels[1].PayloadBytes = 2000
	srv := server.Fixed{Latency: ms(42)}
	err := EstimateBudgets(srv, set, EstimatorConfig{Probes: 20, Spacing: ms(5), Quantile: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic server: every level's budget is 42ms, bumped for
	// strict monotonicity.
	if set[0].Levels[0].Response != ms(42) {
		t.Fatalf("level 0 budget %v", set[0].Levels[0].Response)
	}
	if set[0].Levels[1].Response != ms(42)+1 {
		t.Fatalf("level 1 budget %v (monotonicity bump)", set[0].Levels[1].Response)
	}
}

// TestBudgetFromExactQuantile pins the nearest-rank semantics on
// integer latencies: rank ⌈q·n⌉ of the sorted samples, computed in
// exact arithmetic. The float64 path this replaced could land one rank
// off when q·n rounds across an integer, and truncated the margin
// multiply down by a tick.
func TestBudgetFromExactQuantile(t *testing.T) {
	lats := make([]rtime.Duration, 10)
	for i := range lats {
		lats[i] = ms(int64(i+1) * 10) // 10ms … 100ms
	}
	for _, tc := range []struct {
		q    float64
		want rtime.Duration
	}{
		{0.05, ms(10)}, // ⌈0.5⌉ = rank 1
		// float64 0.1 is a hair above 1/10, so ⌈q·10⌉ is exactly 2 —
		// the rank the given float value truly denotes.
		{0.1, ms(20)},
		{0.11, ms(20)},  // ⌈1.1⌉ = rank 2
		{0.5, ms(50)},   // 0.5 is dyadic: exactly rank 5
		{0.75, ms(80)},  // dyadic: ⌈7.5⌉ = rank 8
		{0.9, ms(100)},  // float64 0.9 is a hair above 9/10: rank 10
		{0.91, ms(100)}, // ⌈9.1⌉ = rank 10
		{1, ms(100)},    // maximum
	} {
		cfg := EstimatorConfig{Probes: 10, Spacing: ms(1), Quantile: tc.q}
		if got := cfg.budgetFrom(lats); got != tc.want {
			t.Errorf("q=%g: budget %v, want %v", tc.q, got, tc.want)
		}
	}
	// One sample: every quantile returns it.
	one := EstimatorConfig{Probes: 1, Spacing: ms(1), Quantile: 0.3}
	if got := one.budgetFrom([]rtime.Duration{ms(7)}); got != ms(7) {
		t.Errorf("single sample: %v", got)
	}
	if got := one.budgetFrom(nil); got != 0 {
		t.Errorf("empty samples: %v", got)
	}
}

// TestBudgetFromMarginRoundsUp pins the checked-integer margin: the
// inflation is computed exactly and rounded up to the next tick, never
// down — 1µs × 10% must yield 2µs, not the float-truncated 1µs.
func TestBudgetFromMarginRoundsUp(t *testing.T) {
	cfg := EstimatorConfig{Probes: 1, Spacing: ms(1), Quantile: 1, Margin: 0.1}
	if got := cfg.budgetFrom([]rtime.Duration{1}); got != 2 {
		t.Errorf("1µs at 10%% margin: %v, want 2µs (ceil)", got)
	}
	// float64 0.1 is slightly above 1/10, so the exact ceiling lands
	// one tick past 110ms — the margin never silently shrinks.
	if got := cfg.budgetFrom([]rtime.Duration{ms(100)}); got != ms(110)+1 {
		t.Errorf("100ms at 10%% margin: %v, want 110ms+1µs", got)
	}
	// An exact multiple stays exact: 0.25 is a dyadic rational.
	quarter := EstimatorConfig{Probes: 1, Spacing: ms(1), Quantile: 1, Margin: 0.25}
	if got := quarter.budgetFrom([]rtime.Duration{ms(40)}); got != ms(50) {
		t.Errorf("40ms at 25%% margin: %v, want 50ms", got)
	}
	// Margin overflow saturates instead of wrapping.
	huge := EstimatorConfig{Probes: 1, Spacing: ms(1), Quantile: 1, Margin: math.MaxFloat64}
	if got := huge.budgetFrom([]rtime.Duration{ms(1)}); got != rtime.Duration(math.MaxInt64) {
		t.Errorf("overflowing margin: %v, want saturation", got)
	}
}

func TestEstimateBudgetsLostProbesKeepPrior(t *testing.T) {
	set := twoTaskSet()
	prior := set[0].Levels[0].Response
	err := EstimateBudgets(server.Fixed{Lost: true}, set, EstimatorConfig{Probes: 5, Spacing: ms(5), Quantile: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if set[0].Levels[0].Response != prior {
		t.Fatalf("lost probes overwrote budget: %v", set[0].Levels[0].Response)
	}
}

func TestEstimateBudgetsBadConfig(t *testing.T) {
	if err := EstimateBudgets(server.Fixed{}, twoTaskSet(), EstimatorConfig{}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestEstimateBudgetsQueueServerQuantile(t *testing.T) {
	rng := stats.NewRNG(11)
	srv, err := server.NewScenario(rng, server.Idle)
	if err != nil {
		t.Fatal(err)
	}
	set := twoTaskSet()
	for i := range set {
		for j := range set[i].Levels {
			set[i].Levels[j].PayloadBytes = 60000
		}
	}
	if err := EstimateBudgets(srv, set, EstimatorConfig{Probes: 200, Spacing: ms(50), Quantile: 0.9}); err != nil {
		t.Fatal(err)
	}
	// Idle scenario with 60kB payloads: budgets should land in the
	// tens-of-milliseconds range, far below the 100ms deadline.
	r := set[0].Levels[0].Response
	if r <= 0 || r > ms(100) {
		t.Fatalf("estimated budget %v implausible", r)
	}
}

func TestEstimatedSetFeedsDecide(t *testing.T) {
	// Full §3 pipeline: probe → budgets → decide → simulate.
	rng := stats.NewRNG(13)
	srv, err := server.NewScenario(rng.Fork(), server.Idle)
	if err != nil {
		t.Fatal(err)
	}
	set := twoTaskSet()
	for i := range set {
		for j := range set[i].Levels {
			set[i].Levels[j].PayloadBytes = int64(40000 * (j + 1))
		}
	}
	if err := EstimateBudgets(srv, set, EstimatorConfig{Probes: 100, Spacing: ms(100), Quantile: 0.95}); err != nil {
		t.Fatal(err)
	}
	d, err := Decide(set, Options{Solver: SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	runSrv, err := server.NewScenario(rng.Fork(), server.Idle)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedRun(d, runSrv, rtime.FromSeconds(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("%d misses", res.Misses)
	}
	// With an idle server and 95th-percentile budgets, most offloaded
	// jobs (if any were chosen) must hit.
	for _, c := range d.Choices {
		if !c.Offload {
			continue
		}
		st := res.PerTask[c.Task.ID]
		if st.Finished == 0 {
			continue
		}
		if frac := float64(st.Hits) / float64(st.Finished); frac < 0.7 {
			t.Fatalf("task %d hit fraction %g too low for idle server", c.Task.ID, frac)
		}
	}
}
