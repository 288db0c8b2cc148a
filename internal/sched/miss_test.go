package sched

import (
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/trace"
)

// overloadedAssignments builds a system that must miss deadlines:
// two tasks needing 8ms each every 10ms.
func overloadedAssignments() []Assignment {
	return []Assignment{
		{Task: localTask(1, ms(8), ms(10), ms(10))},
		{Task: localTask(2, ms(8), ms(10), ms(10))},
	}
}

func TestMissPolicyString(t *testing.T) {
	if ContinueLate.String() != "continue-late" || AbortAtDeadline.String() != "abort-at-deadline" {
		t.Error("names")
	}
	if MissPolicy(9).String() == "" {
		t.Error("unknown name empty")
	}
	if _, err := Run(Config{
		Assignments: overloadedAssignments(),
		Horizon:     ms(10),
		OnMiss:      MissPolicy(9),
	}); err == nil {
		t.Error("unknown miss policy accepted")
	}
}

func TestContinueLateCascades(t *testing.T) {
	res, err := Run(Config{
		Assignments: overloadedAssignments(),
		Horizon:     ms(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 {
		t.Fatal("overload without misses")
	}
	// Every job eventually finishes (late) under ContinueLate.
	for _, st := range res.PerTask {
		if st.Finished != st.Released {
			t.Fatalf("task %d: %d released, %d finished", st.TaskID, st.Released, st.Finished)
		}
		if st.Aborted != 0 {
			t.Fatalf("ContinueLate aborted jobs: %+v", st)
		}
	}
	// Backlog grows: the worst latency well exceeds one period.
	worst := rtime.Duration(0)
	for _, st := range res.PerTask {
		if st.WorstLatency > worst {
			worst = st.WorstLatency
		}
	}
	if worst < ms(30) {
		t.Fatalf("no cascade: worst latency %v", worst)
	}
}

func TestAbortAtDeadline(t *testing.T) {
	var tr trace.Trace
	res, err := Run(Config{
		Assignments: overloadedAssignments(),
		Horizon:     ms(100),
		OnMiss:      AbortAtDeadline,
		TraceSink:   &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 {
		t.Fatal("overload without misses")
	}
	aborted := 0
	for _, st := range res.PerTask {
		aborted += st.Aborted
		if st.Finished+st.Aborted != st.Released {
			t.Fatalf("task %d: %d finished + %d aborted ≠ %d released",
				st.TaskID, st.Finished, st.Aborted, st.Released)
		}
	}
	if aborted == 0 {
		t.Fatal("nothing aborted under AbortAtDeadline")
	}
	// Firm deadlines: nothing ever runs past its deadline, so the worst
	// response time is bounded by D.
	for _, st := range res.PerTask {
		if st.WorstLatency > ms(10) {
			t.Fatalf("task %d ran past its deadline: %v", st.TaskID, st.WorstLatency)
		}
	}
	// Trace checkers understand abandoned sub-jobs.
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortSuspendedJob(t *testing.T) {
	// An offloaded task whose compensation cannot fit: setup 1ms,
	// budget 8ms, compensation 6ms, deadline 10ms, but a local hog
	// steals the window. The suspended/late job must be aborted at its
	// deadline without resuming.
	tk := offloadTask(1, ms(1), ms(6), 0, ms(10), ms(20), ms(8), 5)
	hog := localTask(2, ms(9), ms(11), ms(20))
	res, err := Run(Config{
		Assignments: []Assignment{{Task: tk, Offload: true}, {Task: hog}},
		Server:      server.Fixed{Lost: true},
		Horizon:     ms(40),
		OnMiss:      AbortAtDeadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerTask[1]
	if st.Aborted == 0 {
		t.Fatalf("suspended job not aborted: %+v", st)
	}
	// No compensation segment may end past the job deadline.
	for _, j := range res.Jobs {
		if j.TaskID == 1 && j.Finished && j.Finish > j.Deadline {
			t.Fatalf("job finished late despite abort policy: %+v", j)
		}
	}
}

func TestAbortKeepsFeasibleSystemsUntouched(t *testing.T) {
	// A Theorem-3 feasible system behaves identically under both
	// policies: no misses, no aborts.
	tk := offloadTask(1, ms(2), ms(6), ms(1), ms(30), ms(30), ms(8), 5)
	for _, p := range []MissPolicy{ContinueLate, AbortAtDeadline} {
		res, err := Run(Config{
			Assignments: []Assignment{{Task: tk, Offload: true}},
			Server:      server.Fixed{Lost: true},
			Horizon:     ms(90),
			OnMiss:      p,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses != 0 || res.PerTask[1].Aborted != 0 {
			t.Fatalf("%v: feasible system disturbed: %+v", p, res.PerTask[1])
		}
		if res.PerTask[1].Finished != 3 {
			t.Fatalf("%v: finished %d", p, res.PerTask[1].Finished)
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	tk := offloadTask(1, ms(2), ms(6), ms(1), ms(30), ms(30), ms(8), 5)
	res, err := Run(Config{
		Assignments:      []Assignment{{Task: tk, Offload: true}},
		Server:           server.Fixed{Latency: ms(5)},
		Horizon:          ms(300),
		CollectLatencies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic: every job finishes in exactly 8ms.
	for _, p := range []float64{0, 50, 99, 100} {
		got, ok := res.LatencyPercentile(1, p)
		if !ok || got != ms(8) {
			t.Fatalf("P%g = %v, ok=%v", p, got, ok)
		}
	}
	if _, ok := res.LatencyPercentile(99, 50); ok {
		t.Error("unknown task reported percentiles")
	}
	if _, ok := res.LatencyPercentile(1, 101); ok {
		t.Error("out-of-range percentile accepted")
	}
	// Without collection: not available.
	res, err = Run(Config{
		Assignments: []Assignment{{Task: tk, Offload: true}},
		Server:      server.Fixed{Latency: ms(5)},
		Horizon:     ms(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.LatencyPercentile(1, 50); ok {
		t.Error("percentiles without collection")
	}
}

// maliciousServer returns responses "before" their requests.
type maliciousServer struct{}

func (maliciousServer) Respond(rtime.Instant, int, int64) server.Response {
	return server.Response{Latency: -ms(50), Arrives: true}
}

func TestNegativeLatencyClamped(t *testing.T) {
	tk := offloadTask(1, ms(2), ms(6), ms(1), ms(30), ms(30), ms(8), 5)
	var tr trace.Trace
	res, err := Run(Config{
		Assignments: []Assignment{{Task: tk, Offload: true}},
		Server:      maliciousServer{},
		Horizon:     ms(90),
		TraceSink:   &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("misses %d", res.Misses)
	}
	// Clamped to instant arrival: post-processing right after setup.
	for _, j := range res.Jobs {
		if j.Outcome != OffloadHit {
			t.Fatalf("outcome %v", j.Outcome)
		}
		if j.Finish != j.Release.Add(ms(3)) { // setup 2 + post 1
			t.Fatalf("finish %v, want release+3ms", j.Finish)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace: %v", err)
	}
}
