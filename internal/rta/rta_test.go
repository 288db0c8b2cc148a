package rta

import (
	"fmt"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

func ms(v int64) rtime.Duration { return rtime.FromMillis(v) }

func TestValidate(t *testing.T) {
	good := Task{ID: 1, C1: ms(2), D: ms(10), T: ms(10)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Task{
		{ID: 1, C1: ms(2), D: ms(10), T: 0},
		{ID: 1, C1: ms(2), D: 0, T: ms(10)},
		{ID: 1, C1: ms(2), D: ms(11), T: ms(10)},
		{ID: 1, C1: 0, D: ms(10), T: ms(10)},
		{ID: 1, C1: ms(2), C2: -1, D: ms(10), T: ms(10)},
		{ID: 1, C1: ms(2), Suspend: ms(9), D: ms(10), T: ms(10)},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Classic RTA example (no suspensions): three tasks, hand-computed
// response times.
func TestAnalyzeClassic(t *testing.T) {
	tasks := []Task{
		{ID: 1, C1: ms(1), D: ms(4), T: ms(4)},
		{ID: 2, C1: ms(2), D: ms(6), T: ms(6)},
		{ID: 3, C1: ms(3), D: ms(13), T: ms(13)},
	}
	for _, m := range []Method{Oblivious, Jitter} {
		res, err := Analyze(tasks, m)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			t.Fatalf("%v: classic set rejected", m)
		}
		// τ1: R = 1. τ2: R = 2 + ⌈R/4⌉·1 → 3.
		// τ3: R = 3 + ⌈R/4⌉·1 + ⌈R/6⌉·2 → fixpoint 10
		// (3 + ⌈10/4⌉·1 + ⌈10/6⌉·2 = 3 + 3 + 4).
		want := []rtime.Duration{ms(1), ms(3), ms(10)}
		for i, w := range want {
			if res.Response[i] != w {
				t.Errorf("%v: R%d = %v, want %v", m, i+1, res.Response[i], w)
			}
		}
	}
}

func TestAnalyzeDetectsOverload(t *testing.T) {
	tasks := []Task{
		{ID: 1, C1: ms(6), D: ms(10), T: ms(10)},
		{ID: 2, C1: ms(6), D: ms(12), T: ms(12)},
	}
	res, err := Analyze(tasks, Oblivious)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatal("overload accepted")
	}
	if res.Converged[0] != true || res.Converged[1] != false {
		t.Fatalf("convergence flags %v", res.Converged)
	}
}

func TestJitterDominatesOblivious(t *testing.T) {
	// A self-suspending high-priority task: oblivious counts its
	// suspension as interference on τ2, jitter does not.
	tasks := []Task{
		{ID: 1, C1: ms(1), C2: ms(1), Suspend: ms(6), D: ms(10), T: ms(10)},
		{ID: 2, C1: ms(7), D: ms(12), T: ms(12)},
	}
	ob, err := Analyze(tasks, Oblivious)
	if err != nil {
		t.Fatal(err)
	}
	ji, err := Analyze(tasks, Jitter)
	if err != nil {
		t.Fatal(err)
	}
	// Oblivious: τ2 interference per τ1 job = 8ms → R2 = 7+8(+8) > 12.
	if ob.Schedulable {
		t.Fatal("oblivious unexpectedly accepted")
	}
	// Jitter: τ1 execution 2ms, jitter 6ms → R2 = 7 + ⌈(R+6)/10⌉·2 = 11.
	if !ji.Schedulable {
		t.Fatalf("jitter analysis rejected; R = %v", ji.Response)
	}
	if ji.Response[1] != ms(11) {
		t.Errorf("R2 = %v, want 11ms", ji.Response[1])
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, Oblivious); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Analyze([]Task{{ID: 1, C1: 1, D: 1, T: 1}}, Method(9)); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Analyze([]Task{{}}, Oblivious); err == nil {
		t.Error("invalid task accepted")
	}
	if Oblivious.String() == "" || Jitter.String() == "" || Method(9).String() == "" {
		t.Error("method names")
	}
}

func TestFromAssignments(t *testing.T) {
	tk := &task.Task{
		ID: 1, Period: ms(100), Deadline: ms(90),
		LocalWCET: ms(30), Setup: ms(5), Compensation: ms(30),
		LocalBenefit: 1,
		Levels:       []task.Level{{Response: ms(20), Benefit: 2}},
	}
	loc := &task.Task{ID: 2, Period: ms(50), Deadline: ms(50), LocalWCET: ms(10), LocalBenefit: 1}
	out, err := FromAssignments([]sched.Assignment{
		{Task: tk, Offload: true},
		{Task: loc},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].C1 != ms(5) || out[0].C2 != ms(30) || out[0].Suspend != ms(20) || out[0].D != ms(90) {
		t.Fatalf("offloaded view %+v", out[0])
	}
	if out[1].C1 != ms(10) || out[1].C2 != 0 || out[1].Suspend != 0 {
		t.Fatalf("local view %+v", out[1])
	}
	if _, err := FromAssignments([]sched.Assignment{{}}); err == nil {
		t.Error("nil task accepted")
	}
}

// Soundness: any system accepted by either analysis is miss-free under
// the FixedPriority simulator with an adversarial server (suspension
// always exactly Ri) and sporadic jitter. Deterministic seeds.
func TestAnalysisSoundInSimulation(t *testing.T) {
	rng := stats.NewRNG(777)
	accepted := 0
	for trial := 0; trial < 200; trial++ {
		n := rng.IntN(5) + 2
		var asgs []sched.Assignment
		maxT := rtime.Duration(0)
		for i := 0; i < n; i++ {
			period := ms(rng.UniformInt(20, 200))
			if period > maxT {
				maxT = period
			}
			c := rtime.Duration(rng.Int64N(int64(period/6))) + 1
			if rng.Bool(0.5) {
				asgs = append(asgs, sched.Assignment{Task: &task.Task{
					ID: i, Period: period, Deadline: period, LocalWCET: c, LocalBenefit: 1,
				}})
			} else {
				c1 := rtime.Duration(rng.Int64N(int64(c))) + 1
				r := rtime.Duration(rng.Int64N(int64(period / 3)))
				tk := &task.Task{
					ID: i, Period: period, Deadline: period,
					LocalWCET: c, Setup: c1, Compensation: c, LocalBenefit: 1,
					Levels: []task.Level{{Response: r + 1, Benefit: 2}},
				}
				if tk.Validate() != nil {
					continue
				}
				asgs = append(asgs, sched.Assignment{Task: tk, Offload: true})
			}
		}
		if len(asgs) == 0 {
			continue
		}
		model, err := FromAssignments(asgs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{Oblivious, Jitter} {
			res, err := Analyze(model, m)
			if err != nil {
				// Over-dense draws (segments+suspension > D) are fine.
				continue
			}
			if !res.Schedulable {
				continue
			}
			accepted++
			sim, err := sched.Run(sched.Config{
				Assignments:   asgs,
				Server:        server.Fixed{Lost: true},
				Horizon:       6 * maxT,
				Policy:        sched.FixedPriority,
				ReleaseJitter: ms(rng.UniformInt(0, 5)),
				RNG:           rng.Fork(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if sim.Misses != 0 {
				t.Fatalf("trial %d %v: accepted system missed %d deadlines", trial, m, sim.Misses)
			}
			// The analysis bound dominates every observed response time.
			for i, a := range asgs {
				st := sim.PerTask[a.Task.ID]
				if st == nil {
					continue
				}
				if st.WorstLatency > res.Response[i] {
					t.Fatalf("trial %d %v: task %d observed response %v above bound %v",
						trial, m, a.Task.ID, st.WorstLatency, res.Response[i])
				}
			}
		}
	}
	if accepted < 40 {
		t.Fatalf("only %d acceptances; generator too tight", accepted)
	}
}

// Acceptance comparison on random sets: jitter ≥ oblivious.
func TestJitterAcceptsMore(t *testing.T) {
	rng := stats.NewRNG(99)
	obl, jit := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := rng.IntN(4) + 2
		var model []Task
		for i := 0; i < n; i++ {
			period := ms(rng.UniformInt(20, 200))
			c := rtime.Duration(rng.Int64N(int64(period/4))) + 1
			c1 := c/3 + 1
			s := rtime.Duration(rng.Int64N(int64(period / 3)))
			tk := Task{ID: i, C1: c1, C2: c, Suspend: s, D: period, T: period}
			if tk.Validate() != nil {
				continue
			}
			model = append(model, tk)
		}
		if len(model) == 0 {
			continue
		}
		if r, err := Analyze(model, Oblivious); err == nil && r.Schedulable {
			obl++
			// Dominance: anything oblivious accepts, jitter accepts.
			if r2, err := Analyze(model, Jitter); err != nil || !r2.Schedulable {
				t.Fatalf("trial %d: oblivious accepted but jitter rejected", trial)
			}
		}
		if r, err := Analyze(model, Jitter); err == nil && r.Schedulable {
			jit++
		}
	}
	if jit <= obl {
		t.Fatalf("jitter (%d) not more permissive than oblivious (%d)", jit, obl)
	}
}

// String names a Method in test output; no shipped binary prints one.
func (m Method) String() string {
	switch m {
	case Oblivious:
		return "suspension-oblivious"
	case Jitter:
		return "suspension-jitter"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}
