// Package rta provides fixed-priority response-time analysis for the
// FP baseline the paper rules out (§5.1 cites Ridouard et al.'s
// negative results for scheduling self-suspending tasks).
//
// An offloaded task under fixed priorities is a segmented
// self-suspending task: setup Ci,1, suspension up to Ri, second phase
// Ci,2. Two classical sufficient analyses are implemented:
//
//   - Oblivious: suspension modelled as computation (Ci,1+Ri+Ci,2
//     everywhere). Always sound, very pessimistic.
//   - Jitter: suspension contributes serially to the task's own
//     response time, and higher-priority self-suspending tasks
//     interfere with release jitter Jj = Rj^resp − Cj (the corrected
//     jitter bound from the self-suspension literature).
//
// Comparing their admission rates against the paper's EDF
// deadline-splitting test is the FP ablation in package exp: deadline
// splitting admits substantially more systems, reproducing the paper's
// argument for building on EDF.
package rta

import (
	"fmt"
	"sort"

	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
)

// Task is the FP analysis view of one task: execution segments C1
// (+ optional suspension S and second segment C2), deadline D, period
// T. A plain local task has C2 = S = 0 and C1 = C.
type Task struct {
	ID      int
	C1, C2  rtime.Duration
	Suspend rtime.Duration
	D, T    rtime.Duration
}

// exec returns the pure execution demand C1+C2.
func (t Task) exec() rtime.Duration { return t.C1 + t.C2 }

// Validate checks the task.
func (t Task) Validate() error {
	switch {
	case t.T <= 0:
		return fmt.Errorf("rta: task %d: period %v", t.ID, t.T)
	case t.D <= 0 || t.D > t.T:
		return fmt.Errorf("rta: task %d: deadline %v out of (0, %v]", t.ID, t.D, t.T)
	case t.C1 <= 0 || t.C2 < 0 || t.Suspend < 0:
		return fmt.Errorf("rta: task %d: invalid segments", t.ID)
	case t.exec()+t.Suspend > t.D:
		return fmt.Errorf("rta: task %d: segments %v + suspension %v exceed deadline %v", t.ID, t.exec(), t.Suspend, t.D)
	}
	return nil
}

// Method selects the suspension treatment.
type Method int

const (
	// Oblivious: suspension as computation.
	Oblivious Method = iota
	// Jitter: suspension serial for the task itself, release jitter
	// for interference from higher-priority tasks.
	Jitter
)

// Result is the outcome of one analysis run.
type Result struct {
	// Response[i] is the response-time bound of tasks[i] (input
	// order); meaningful only when Converged[i].
	Response []rtime.Duration
	// Converged[i] is false when the fixpoint iteration exceeded the
	// deadline (the bound diverged).
	Converged []bool
	// Schedulable: every task converged within its deadline.
	Schedulable bool
}

// Analyze runs deadline-monotonic response-time analysis (ties broken
// by task ID) with the selected suspension treatment.
func Analyze(tasks []Task, m Method) (*Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("rta: no tasks")
	}
	if m != Oblivious && m != Jitter {
		return nil, fmt.Errorf("rta: unknown method %d", int(m))
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	// Priority order: deadline-monotonic.
	idx := make([]int, len(tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ta, tb := tasks[idx[a]], tasks[idx[b]]
		if ta.D != tb.D {
			return ta.D < tb.D
		}
		return ta.ID < tb.ID
	})

	res := &Result{
		Response:    make([]rtime.Duration, len(tasks)),
		Converged:   make([]bool, len(tasks)),
		Schedulable: true,
	}
	// jitter[i] is the interference jitter of tasks[i] once analyzed.
	jitter := make([]rtime.Duration, len(tasks))

	for pos, i := range idx {
		t := tasks[i]
		// The task's own serial demand.
		own := t.exec()
		switch m {
		case Oblivious:
			own += t.Suspend
		case Jitter:
			own += t.Suspend
		}
		r := own
		for iter := 0; ; iter++ {
			interf := rtime.Duration(0)
			for _, hj := range idx[:pos] {
				h := tasks[hj]
				ch := h.exec()
				jit := rtime.Duration(0)
				if m == Oblivious {
					ch += h.Suspend
				} else {
					jit = jitter[hj]
				}
				interf += rtime.Duration(rtime.CeilDiv(r+jit, h.T)) * ch
			}
			next := own + interf
			if next == r {
				break
			}
			r = next
			if r > t.D || iter > 10_000 {
				r = t.D + 1 // diverged past the deadline
				break
			}
		}
		res.Response[i] = r
		res.Converged[i] = r <= t.D
		if !res.Converged[i] {
			res.Schedulable = false
			// Lower-priority analysis still needs this task's jitter; use
			// the sound fallback D − exec (jitter can never exceed it
			// for a task that is to be schedulable anyway).
			jitter[i] = t.D - t.exec()
			continue
		}
		// Corrected jitter bound: response − pure execution.
		jitter[i] = r - t.exec()
		if jitter[i] < 0 {
			jitter[i] = 0
		}
	}
	return res, nil
}

// FromAssignments converts offloading assignments into the FP analysis
// model: offloaded tasks become segmented self-suspending tasks with
// suspension Ri; local tasks plain sporadic tasks.
func FromAssignments(asgs []sched.Assignment) ([]Task, error) {
	out := make([]Task, 0, len(asgs))
	for _, a := range asgs {
		t := a.Task
		if t == nil {
			return nil, fmt.Errorf("rta: assignment without task")
		}
		if a.Offload {
			out = append(out, Task{
				ID:      t.ID,
				C1:      t.SetupAt(a.Level),
				C2:      t.SecondPhaseAt(a.Level),
				Suspend: a.Budget(),
				D:       t.Deadline,
				T:       t.Period,
			})
		} else {
			out = append(out, Task{
				ID: t.ID, C1: t.LocalWCET, D: t.Deadline, T: t.Period,
			})
		}
	}
	return out, nil
}
