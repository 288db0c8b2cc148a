// Integration tests exercising the full public pipeline the README
// promises, end to end: estimate → decide → verify → simulate →
// validate traces, across the uniprocessor, multicore, adaptive and
// multi-component configurations.
package rtoffload_test

import (
	"bytes"
	"math/big"
	"testing"

	"rtoffload/internal/core"
	"rtoffload/internal/exp"
	"rtoffload/internal/partition"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// TestREADMEPipeline follows the README quickstart: a task set is
// decided by DP, the exact Theorem-3 total stays within capacity, the
// schedule survives an adversarial server without misses, and the
// recorded trace passes the independent invariant checkers.
func TestREADMEPipeline(t *testing.T) {
	ms := rtime.FromMillis
	set := task.Set{
		{
			ID: 1, Name: "recognition",
			Period: ms(1000), Deadline: ms(1000),
			LocalWCET: ms(278), Setup: ms(12), Compensation: ms(278),
			LocalBenefit: 22.5,
			Levels: []task.Level{
				{Response: ms(150), Benefit: 30.6, PayloadBytes: 120_000},
				{Response: ms(400), Benefit: 99, PayloadBytes: 480_000},
			},
		},
		{
			ID: 2, Name: "tracking",
			Period: ms(500), Deadline: ms(500),
			LocalWCET: ms(120), Setup: ms(8), Compensation: ms(120),
			LocalBenefit: 25,
			Levels: []task.Level{
				{Response: ms(100), Benefit: 34, PayloadBytes: 80_000},
				{Response: ms(250), Benefit: 41, PayloadBytes: 200_000},
			},
		},
	}
	dec, err := core.Decide(set, core.Options{Solver: core.SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Theorem3Total.Cmp(big.NewRat(1, 1)) > 0 {
		t.Fatalf("decision over capacity: %v", dec.Theorem3Total)
	}
	var tr trace.Trace
	res, err := sched.Run(sched.Config{
		Assignments: dec.Assignments(),
		Server:      server.Fixed{Lost: true},
		Horizon:     rtime.FromSeconds(10),
		TraceSink:   &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("%d misses", res.Misses)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace: %v", err)
	}

	// The decision survives a JSON round trip and replays identically.
	var buf bytes.Buffer
	if err := dec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec2, err := core.ReadDecisionJSON(&buf, set)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sched.Run(sched.Config{
		Assignments: dec2.Assignments(),
		Server:      server.Fixed{Lost: true},
		Horizon:     rtime.FromSeconds(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalBenefit != res.TotalBenefit || res2.Misses != 0 {
		t.Fatalf("replayed decision diverged: %g vs %g", res2.TotalBenefit, res.TotalBenefit)
	}
}

// TestFullStackScenario chains every major component once: probing a
// queueing server, deciding, upgrading with the exact test, and
// simulating under the busy scenario with latency collection and
// energy accounting.
func TestFullStackScenario(t *testing.T) {
	rng := stats.NewRNG(99)
	set, err := task.GenerateRandomSet(rng.Fork(), task.DefaultRandomSetParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range set {
		for j := range tk.Levels {
			tk.Levels[j].PayloadBytes = 30_000 * int64(j+1)
		}
	}
	probeSrv, err := server.NewScenario(rng.Fork(), server.NotBusy)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.EstimateBudgets(probeSrv, set, core.EstimatorConfig{
		Probes: 60, Spacing: rtime.FromMillis(40), Quantile: 0.8, Margin: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decide(set, core.Options{Solver: core.SolverHEU})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := core.ImproveWithExact(dec, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyExact(improved); err != nil {
		t.Fatal(err)
	}
	runSrv, err := server.NewScenario(rng.Fork(), server.Busy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sched.Config{
		Assignments:      improved.Assignments(),
		Server:           runSrv,
		Horizon:          rtime.FromSeconds(20),
		CollectLatencies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("%d misses under busy server", res.Misses)
	}
	eb, err := res.Energy(exp.DefaultPowerModel())
	if err != nil {
		t.Fatal(err)
	}
	if eb.Joules <= 0 {
		t.Fatal("no energy accounted")
	}
	for _, tk := range set {
		if _, ok := res.LatencyPercentile(tk.ID, 95); !ok {
			t.Fatalf("no latency percentiles for task %d", tk.ID)
		}
	}
}

// TestMulticoreIntegration partitions a heavy system, simulates every
// core against its own forked scenario server, and checks the
// aggregate guarantee.
func TestMulticoreIntegration(t *testing.T) {
	ms := rtime.FromMillis
	var set task.Set
	for i := 0; i < 6; i++ {
		set = append(set, &task.Task{
			ID: i, Period: ms(400), Deadline: ms(400),
			LocalWCET: ms(140), Setup: ms(4), Compensation: ms(140),
			LocalBenefit: 1,
			Levels: []task.Level{
				{Response: ms(60), Benefit: 3, PayloadBytes: 60_000},
				{Response: ms(150), Benefit: 8, PayloadBytes: 240_000},
			},
		})
	}
	dec, err := partition.Decide(set, partition.Options{
		Cores: 3, Core: core.Options{Solver: core.SolverDP},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	res, err := partition.Simulate(dec, func(int) server.Server {
		s, err := server.NewScenario(rng.Fork(), server.Idle)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, rtime.FromSeconds(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("%d misses", res.Misses)
	}
	if res.NormalizedBenefit() <= 1.5 {
		t.Fatalf("multicore offloading earned only %.2f×", res.NormalizedBenefit())
	}
}
