package sched

import (
	"fmt"
	"testing"

	"rtoffload/internal/benefit"
	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

func ms(v int64) rtime.Duration { return rtime.FromMillis(v) }

// localTask builds a plain local task.
func localTask(id int, c, d, t rtime.Duration) *task.Task {
	return &task.Task{
		ID: id, Period: t, Deadline: d, LocalWCET: c, LocalBenefit: 1,
	}
}

// offloadTask builds an offloadable task with one level.
func offloadTask(id int, c1, c2, c3, d, t, r rtime.Duration, gain float64) *task.Task {
	return &task.Task{
		ID: id, Period: t, Deadline: d,
		LocalWCET: c2, Setup: c1, Compensation: c2, PostProcess: c3,
		LocalBenefit: 1,
		Levels:       []task.Level{{Response: r, Benefit: gain, PayloadBytes: 1000}},
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Assignments: []Assignment{{Task: localTask(1, ms(2), ms(10), ms(10))}},
		Horizon:     ms(100),
	}
	if _, err := Run(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero horizon", Config{Assignments: good.Assignments}},
		{"no assignments", Config{Horizon: ms(10)}},
		{"nil task", Config{Horizon: ms(10), Assignments: []Assignment{{}}}},
		{"duplicate IDs", Config{Horizon: ms(10), Assignments: []Assignment{
			{Task: localTask(1, ms(1), ms(10), ms(10))},
			{Task: localTask(1, ms(1), ms(10), ms(10))},
		}}},
		{"offload without server", Config{Horizon: ms(10), Assignments: []Assignment{
			{Task: offloadTask(1, ms(1), ms(2), 0, ms(10), ms(10), ms(5), 2), Offload: true},
		}}},
		{"level out of range", Config{Horizon: ms(10), Server: server.Fixed{}, Assignments: []Assignment{
			{Task: offloadTask(1, ms(1), ms(2), 0, ms(10), ms(10), ms(5), 2), Offload: true, Level: 3},
		}}},
		{"jitter without RNG", Config{Horizon: ms(10), ReleaseJitter: ms(1),
			Assignments: good.Assignments}},
		{"bad policy", Config{Horizon: ms(10), Policy: Policy(9), Assignments: good.Assignments}},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLocalEDFSchedule(t *testing.T) {
	// τ1: C=3, D=T=10; τ2: C=4, D=T=20. EDF: τ1 first each time.
	var tr trace.Trace
	cfg := Config{
		Assignments: []Assignment{
			{Task: localTask(1, ms(3), ms(10), ms(10))},
			{Task: localTask(2, ms(4), ms(20), ms(20))},
		},
		Horizon:   ms(40),
		TraceSink: &tr,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	st1, st2 := res.PerTask[1], res.PerTask[2]
	if st1.Released != 4 || st2.Released != 2 {
		t.Fatalf("released = %d, %d", st1.Released, st2.Released)
	}
	if st1.Finished != 4 || st2.Finished != 2 {
		t.Fatalf("finished = %d, %d", st1.Finished, st2.Finished)
	}
	if st1.LocalRuns != 4 || st1.Hits != 0 || st1.Compensations != 0 {
		t.Fatalf("outcome counts wrong: %+v", st1)
	}
	// Busy time = 4·3 + 2·4 = 20ms.
	if b := tr.TotalBusy(); b != ms(20) {
		t.Fatalf("busy = %v", b)
	}
}

func TestOffloadHitPath(t *testing.T) {
	// Server returns in 5ms, budget 8ms → post-processing runs.
	tk := offloadTask(1, ms(2), ms(6), ms(1), ms(30), ms(30), ms(8), 5)
	var tr trace.Trace
	cfg := Config{
		Assignments: []Assignment{{Task: tk, Offload: true}},
		Server:      server.Fixed{Latency: ms(5)},
		Horizon:     ms(90),
		TraceSink:   &tr,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
	st := res.PerTask[1]
	if st.Hits != 3 || st.Compensations != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Each job: setup [k, k+2), result at k+7, post [k+7, k+8).
	for _, j := range res.Jobs {
		wantFinish := j.Release.Add(ms(8))
		if j.Finish != wantFinish {
			t.Fatalf("job %d finish = %v, want %v", j.Seq, j.Finish, wantFinish)
		}
		if j.Outcome != OffloadHit || j.Benefit != 5 {
			t.Fatalf("job %d outcome %v benefit %g", j.Seq, j.Outcome, j.Benefit)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace: %v", err)
	}
	// Benefit: 3 jobs × benefit 5 = 15; baseline 3 × 1.
	if res.TotalBenefit != 15 || res.TotalBaseline != 3 {
		t.Fatalf("benefit %g baseline %g", res.TotalBenefit, res.TotalBaseline)
	}
	if res.NormalizedBenefit() != 5 {
		t.Fatalf("normalized = %g", res.NormalizedBenefit())
	}
}

func TestOffloadTimeoutCompensation(t *testing.T) {
	// Server never responds: every job compensates, still no misses.
	tk := offloadTask(1, ms(2), ms(6), ms(1), ms(30), ms(30), ms(8), 5)
	var tr trace.Trace
	cfg := Config{
		Assignments: []Assignment{{Task: tk, Offload: true}},
		Server:      server.Fixed{Lost: true},
		Horizon:     ms(90),
		TraceSink:   &tr,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
	st := res.PerTask[1]
	if st.Compensations != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Timer expiry: setup done at k+2, wake at k+10, comp 6ms → k+16.
	for _, j := range res.Jobs {
		if j.Finish != j.Release.Add(ms(16)) {
			t.Fatalf("job finish = %v, want release+16ms", j.Finish)
		}
		if j.Outcome != OffloadMissed || j.Benefit != 1 {
			t.Fatalf("outcome %v benefit %g", j.Outcome, j.Benefit)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace: %v", err)
	}
}

func TestLateResponseIsCompensated(t *testing.T) {
	// Response arrives at 9ms > budget 8ms: compensation, not post.
	tk := offloadTask(1, ms(2), ms(6), ms(1), ms(30), ms(30), ms(8), 5)
	cfg := Config{
		Assignments: []Assignment{{Task: tk, Offload: true}},
		Server:      server.Fixed{Latency: ms(9)},
		Horizon:     ms(30),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerTask[1].Compensations != 1 || res.PerTask[1].Hits != 0 {
		t.Fatalf("stats = %+v", res.PerTask[1])
	}
}

func TestBoundaryResponseExactlyAtBudget(t *testing.T) {
	// "Returns within the response time Ri" includes latency == Ri.
	tk := offloadTask(1, ms(2), ms(6), ms(1), ms(30), ms(30), ms(8), 5)
	cfg := Config{
		Assignments: []Assignment{{Task: tk, Offload: true}},
		Server:      server.Fixed{Latency: ms(8)},
		Horizon:     ms(30),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerTask[1].Hits != 1 {
		t.Fatalf("stats = %+v", res.PerTask[1])
	}
}

func TestZeroPostProcessing(t *testing.T) {
	// C3 = 0: job completes the instant the result arrives.
	tk := offloadTask(1, ms(2), ms(6), 0, ms(30), ms(30), ms(8), 5)
	var tr trace.Trace
	cfg := Config{
		Assignments: []Assignment{{Task: tk, Offload: true}},
		Server:      server.Fixed{Latency: ms(4)},
		Horizon:     ms(30),
		TraceSink:   &tr,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != rtime.Instant(ms(6)) { // setup 2 + latency 4
		t.Fatalf("finish = %v, want 6ms", res.Jobs[0].Finish)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace: %v", err)
	}
}

// The §5.1 motivation: naive EDF misses a deadline that deadline
// splitting meets.
func TestSplitBeatsNaiveEDF(t *testing.T) {
	// τ1 offloaded: C1=2, C2=8, D=T=20, R=10 → D1=2.
	// τ2 local, constrained: C=8, D=10, T=20.
	t1 := offloadTask(1, ms(2), ms(8), 0, ms(20), ms(20), ms(10), 5)
	t2 := localTask(2, ms(8), ms(10), ms(20))
	mk := func(p Policy) (*Result, *trace.Trace) {
		var tr trace.Trace
		res, err := Run(Config{
			Assignments: []Assignment{
				{Task: t1, Offload: true},
				{Task: t2},
			},
			Server:    server.Fixed{Lost: true}, // worst case: always compensate
			Horizon:   ms(40),
			Policy:    p,
			TraceSink: &tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, &tr
	}
	naive, naiveTr := mk(NaiveEDF)
	if naive.Misses == 0 {
		t.Fatal("naive EDF unexpectedly schedulable")
	}
	split, splitTr := mk(SplitEDF)
	if split.Misses != 0 {
		t.Fatalf("split EDF missed %d deadlines", split.Misses)
	}
	if err := splitTr.Validate(); err != nil {
		t.Fatalf("split trace: %v", err)
	}
	if err := naiveTr.Validate(); err != nil {
		t.Fatalf("naive trace: %v", err)
	}
}

// Any system accepted by Theorem 3 stays miss-free in simulation, even
// against an adversarial server that never responds and with sporadic
// release jitter. 150 deterministic random systems.
func TestTheorem3ImpliesNoSimMisses(t *testing.T) {
	rng := stats.NewRNG(2024)
	accepted := 0
	for trial := 0; trial < 150; trial++ {
		n := rng.IntN(6) + 2
		var asgs []Assignment
		var off []dbf.Offloaded
		var loc []dbf.Sporadic
		maxT := rtime.Duration(0)
		for i := 0; i < n; i++ {
			period := ms(rng.UniformInt(20, 200))
			if period > maxT {
				maxT = period
			}
			c := rtime.Duration(rng.Int64N(int64(period/6))) + 1
			if rng.Bool(0.5) {
				tk := localTask(i, c, period, period)
				asgs = append(asgs, Assignment{Task: tk})
				s, err := dbf.NewSporadic(c, period, period)
				if err != nil {
					t.Fatal(err)
				}
				loc = append(loc, s)
			} else {
				c1 := rtime.Duration(rng.Int64N(int64(c))) + 1
				r := rtime.Duration(rng.Int64N(int64(period / 2)))
				o, err := dbf.NewOffloaded(c1, c, period, period, r)
				if err != nil {
					continue
				}
				tk := offloadTask(i, c1, c, c/2, period, period, r, 3)
				asgs = append(asgs, Assignment{Task: tk, Offload: true})
				off = append(off, o)
			}
		}
		if len(asgs) == 0 {
			continue
		}
		if _, ok := dbf.Theorem3(off, loc); !ok {
			continue
		}
		accepted++
		// Two adversaries: never-responding server (all compensations)
		// and a jittery slow server (mix of hits and timeouts).
		servers := []server.Server{
			server.Fixed{Lost: true},
			server.Fixed{Latency: ms(rng.UniformInt(1, 100))},
		}
		for si, srv := range servers {
			var tr trace.Trace
			res, err := Run(Config{
				Assignments:   asgs,
				Server:        srv,
				Horizon:       8 * maxT,
				ReleaseJitter: ms(rng.UniformInt(0, 10)),
				RNG:           rng.Fork(),
				TraceSink:     &tr,
			})
			if err != nil {
				t.Fatalf("trial %d server %d: %v", trial, si, err)
			}
			if res.Misses != 0 {
				t.Fatalf("trial %d server %d: %d misses despite Theorem 3", trial, si, res.Misses)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("trial %d server %d: trace: %v", trial, si, err)
			}
		}
	}
	if accepted < 30 {
		t.Fatalf("only %d accepted systems; generator too tight", accepted)
	}
}

func TestOutcomeCountsConsistent(t *testing.T) {
	rng := stats.NewRNG(31)
	fn := benefit.MustNew(0,
		benefit.Point{R: ms(5), Value: 0.5},
		benefit.Point{R: ms(9), Value: 0.9},
	)
	tk := offloadTask(1, ms(1), ms(3), ms(1), ms(20), ms(20), ms(9), 4)
	srv := server.NewCDF(rng.Fork(), map[int]server.ResponseSampler{1: fn})
	res, err := Run(Config{
		Assignments: []Assignment{{Task: tk, Offload: true}, {Task: localTask(2, ms(2), ms(15), ms(15))}},
		Server:      srv,
		Horizon:     rtime.FromSeconds(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, st := range res.PerTask {
		if st.Hits+st.Compensations+st.LocalRuns != st.Finished {
			t.Fatalf("task %d: outcome counts %d+%d+%d != finished %d",
				id, st.Hits, st.Compensations, st.LocalRuns, st.Finished)
		}
		if st.Finished != st.Released {
			t.Fatalf("task %d: %d released, %d finished", id, st.Released, st.Finished)
		}
	}
	// ~90 % of offloaded jobs should hit (budget at the 0.9 point).
	st := res.PerTask[1]
	frac := float64(st.Hits) / float64(st.Finished)
	if frac < 0.8 || frac > 0.98 {
		t.Fatalf("hit fraction = %g, want ≈0.9", frac)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() *Result {
		rng := stats.NewRNG(5)
		fn := benefit.MustNew(0, benefit.Point{R: ms(8), Value: 0.7})
		tk := offloadTask(1, ms(1), ms(3), ms(1), ms(20), ms(20), ms(8), 4)
		srv := server.NewCDF(rng.Fork(), map[int]server.ResponseSampler{1: fn})
		res, err := Run(Config{
			Assignments:   []Assignment{{Task: tk, Offload: true}},
			Server:        srv,
			Horizon:       rtime.FromSeconds(5),
			ReleaseJitter: ms(3),
			RNG:           rng.Fork(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.TotalBenefit != b.TotalBenefit || len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("non-deterministic: %g/%d vs %g/%d",
			a.TotalBenefit, len(a.Jobs), b.TotalBenefit, len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if SplitEDF.String() != "split-edf" || NaiveEDF.String() != "naive-edf" {
		t.Error("policy names")
	}
	if Policy(7).String() == "" {
		t.Error("unknown policy name empty")
	}
}

func TestNormalizedBenefitEmptyBaseline(t *testing.T) {
	r := &Result{}
	if r.NormalizedBenefit() != 1 {
		t.Error("empty baseline should normalize to 1")
	}
}

// String names a Policy in test output; no shipped binary prints one.
func (p Policy) String() string {
	switch p {
	case SplitEDF:
		return "split-edf"
	case NaiveEDF:
		return "naive-edf"
	case FixedPriority:
		return "fixed-priority"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}
