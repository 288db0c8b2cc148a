package core

import (
	"strings"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// edgeCloudTask can ship a small frame to a nearby edge box (fast,
// modest quality) or the full frame to a cloud GPU (slow, best
// quality).
func edgeCloudTask(id int) *task.Task {
	return &task.Task{
		ID: id, Period: ms(300), Deadline: ms(300),
		LocalWCET: ms(60), Setup: ms(4), Compensation: ms(60),
		LocalBenefit: 1,
		Levels: []task.Level{
			{ServerID: "edge", Response: ms(15), Benefit: 4, PayloadBytes: 20_000},
			{ServerID: "cloud", Response: ms(120), Benefit: 9, PayloadBytes: 200_000},
		},
	}
}

func TestMultiServerRouting(t *testing.T) {
	tk := edgeCloudTask(1)
	servers := map[string]server.Server{
		"edge":  server.Fixed{Latency: ms(10)},
		"cloud": server.Fixed{Latency: ms(100)},
	}
	// Force the cloud level and verify the latency pattern matches the
	// cloud server.
	res, err := sched.Run(sched.Config{
		Assignments: []sched.Assignment{{Task: tk, Offload: true, Level: 1}},
		Servers:     servers,
		Horizon:     ms(900),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 || res.PerTask[1].Hits != 3 {
		t.Fatalf("cloud run: %+v", res.PerTask[1])
	}
	for _, j := range res.Jobs {
		// setup 4ms + cloud 100ms + C3 0 = 104ms.
		if j.Finish != j.Release.Add(ms(104)) {
			t.Fatalf("job finish %v, want release+104ms (cloud latency)", j.Finish)
		}
	}
	// Edge level routes to the edge server.
	res, err = sched.Run(sched.Config{
		Assignments: []sched.Assignment{{Task: tk, Offload: true, Level: 0}},
		Servers:     servers,
		Horizon:     ms(900),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Finish != j.Release.Add(ms(14)) {
			t.Fatalf("job finish %v, want release+14ms (edge latency)", j.Finish)
		}
	}
}

func TestMultiServerValidation(t *testing.T) {
	tk := edgeCloudTask(1)
	// Unknown server name.
	if _, err := sched.Run(sched.Config{
		Assignments: []sched.Assignment{{Task: tk, Offload: true, Level: 0}},
		Servers:     map[string]server.Server{"cloud": server.Fixed{}},
		Horizon:     ms(100),
	}); err == nil {
		t.Error("unknown server accepted")
	}
	// Level without ServerID needs the default server.
	plain := edgeCloudTask(2)
	plain.Levels[0].ServerID = ""
	if _, err := sched.Run(sched.Config{
		Assignments: []sched.Assignment{{Task: plain, Offload: true, Level: 0}},
		Servers:     map[string]server.Server{"edge": server.Fixed{}},
		Horizon:     ms(100),
	}); err == nil {
		t.Error("missing default server accepted")
	}
}

func TestEstimateBudgetsRouted(t *testing.T) {
	set := task.Set{edgeCloudTask(1), edgeCloudTask(2)}
	servers := map[string]server.Server{
		"edge":  server.Fixed{Latency: ms(10)},
		"cloud": server.Fixed{Latency: ms(100)},
	}
	cfg := EstimatorConfig{Probes: 10, Spacing: ms(5), Quantile: 0.9}
	if err := EstimateBudgetsRouted(nil, servers, set, cfg); err != nil {
		t.Fatal(err)
	}
	for _, tk := range set {
		if tk.Levels[0].Response != ms(10) {
			t.Fatalf("edge budget %v", tk.Levels[0].Response)
		}
		if tk.Levels[1].Response != ms(100) {
			t.Fatalf("cloud budget %v", tk.Levels[1].Response)
		}
	}
	// Unknown route rejected.
	bad := task.Set{edgeCloudTask(3)}
	bad[0].Levels[0].ServerID = "nowhere"
	if err := EstimateBudgetsRouted(nil, servers, bad, cfg); err == nil {
		t.Error("unknown route accepted")
	}
}

// TestEstimateBudgetsRejectsRoutedLevel: the single-server estimator
// has no server for a level that names one, so it must refuse the set
// rather than measure the level against the default server.
func TestEstimateBudgetsRejectsRoutedLevel(t *testing.T) {
	set := task.Set{edgeCloudTask(1)}
	before := set[0].Levels[1].Response
	cfg := EstimatorConfig{Probes: 10, Spacing: ms(5), Quantile: 0.9}
	err := EstimateBudgets(server.Fixed{Latency: ms(10)}, set, cfg)
	if err == nil || !strings.Contains(err.Error(), "routes to unknown server") {
		t.Fatalf("routed level accepted by EstimateBudgets: err %v, cloud budget %v", err, set[0].Levels[1].Response)
	}
	if got := set[0].Levels[1].Response; got != before {
		t.Fatalf("cloud budget %v overwritten (was %v)", got, before)
	}
}

// The decision chooses between components by capacity: with both tasks
// wanting the cloud's quality, the Theorem-3 weights of the slow cloud
// budgets force one task onto the edge.
func TestDecisionPicksBetweenComponents(t *testing.T) {
	set := task.Set{edgeCloudTask(1), edgeCloudTask(2)}
	servers := map[string]server.Server{
		"edge":  server.Fixed{Latency: ms(10)},
		"cloud": server.Fixed{Latency: ms(160)},
	}
	cfg := EstimatorConfig{Probes: 10, Spacing: ms(5), Quantile: 0.9}
	if err := EstimateBudgetsRouted(nil, servers, set, cfg); err != nil {
		t.Fatal(err)
	}
	// cloud weight: (4+60)/(300−160) ≈ 0.457; edge: 64/290 ≈ 0.22.
	// Both cloud: 0.91 — fits! Tighten: shrink deadline via clone.
	for _, tk := range set {
		tk.Period, tk.Deadline = ms(260), ms(260)
		tk.LocalWCET, tk.Compensation = ms(52), ms(52)
	}
	// cloud: 56/100 = 0.56 ×2 = 1.12 > 1 → mixed assignment optimal.
	dec, err := Decide(set, Options{Solver: SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	cloud, edge := 0, 0
	for _, c := range dec.Choices {
		if !c.Offload {
			continue
		}
		switch c.Task.Levels[c.Level].ServerID {
		case "cloud":
			cloud++
		case "edge":
			edge++
		}
	}
	if cloud != 1 || edge != 1 {
		t.Fatalf("want 1 cloud + 1 edge, got %d/%d (choices %+v)", cloud, edge, dec.Choices)
	}
	// And it runs miss-free against both components.
	res, err := sched.Run(sched.Config{
		Assignments: dec.Assignments(),
		Servers:     servers,
		Horizon:     rtime.FromSeconds(3),
		RNG:         stats.NewRNG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("%d misses", res.Misses)
	}
}
