// Package task defines the sporadic real-time task model of the paper
// (§4): tasks with minimum inter-arrival times, relative deadlines,
// local WCETs, and — for offloadable tasks — per-level setup /
// compensation / post-processing WCETs and discrete offloading levels.
//
// A Task carries everything the Offloading Decision Manager needs to
// choose between executing locally and offloading with one of a fixed
// number of estimated response-time budgets. The benefit value of each
// choice lives here too (Level.Benefit and Task.LocalBenefit); the
// benefit package provides the machinery for constructing those values
// from measurements.
package task

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"rtoffload/internal/rtime"
)

// Task is one sporadic real-time task τi.
//
// Timing parameters follow the paper's notation: Period is Ti, Deadline
// is Di (implicit-deadline tasks have Di = Ti; constrained-deadline
// tasks Di ≤ Ti), LocalWCET is Ci, Setup is Ci,1, Compensation is Ci,2
// and PostProcess is Ci,3 (with Ci,3 ≤ Ci,2). Levels lists the discrete
// offloading choices ri,2 < ri,3 < … of the benefit function; the
// implicit first choice ri,1 = 0 (pure local execution, benefit
// LocalBenefit) is always available.
type Task struct {
	ID   int    `json:"id"`
	Name string `json:"name,omitempty"`

	Period   rtime.Duration `json:"period"`
	Deadline rtime.Duration `json:"deadline"`

	LocalWCET    rtime.Duration `json:"localWCET"`
	Setup        rtime.Duration `json:"setup,omitempty"`
	Compensation rtime.Duration `json:"compensation,omitempty"`
	PostProcess  rtime.Duration `json:"postProcess,omitempty"`

	// LocalBenefit is Gi(0): the benefit obtained by executing locally
	// (or by the compensation path, which guarantees at least the local
	// baseline quality).
	LocalBenefit float64 `json:"localBenefit"`

	// Weight scales the task's benefit in the system objective
	// (the case study's importance values 1..4).
	Weight float64 `json:"weight,omitempty"`

	// ServerWCRT is an optional *pessimistic* upper bound on the
	// server's response time (the paper's §3 extension). When a
	// level's budget Ri is at least this bound, the result is
	// guaranteed to return in time, the compensation never runs, and
	// the analysis may budget the second phase with Ci,3 instead of
	// Ci,2. Zero means no bound is known (the default unreliable
	// case). Tasks using the bound must declare a positive
	// PostProcess WCET.
	ServerWCRT rtime.Duration `json:"serverWCRT,omitempty"`

	// Levels are the offloading choices, sorted by strictly increasing
	// Response. Empty for tasks that can only run locally.
	Levels []Level `json:"levels,omitempty"`
}

// Level is one discrete point of the benefit function: offloading with
// estimated worst-case response time Response yields Benefit. Setup,
// Compensation and PostProcess override the task-wide WCETs when
// non-zero (the paper's C^j_{i,1} / C^j_{i,2} extension, used by the
// case study where each level transmits a different image size).
type Level struct {
	Label        string         `json:"label,omitempty"`
	Response     rtime.Duration `json:"response"`
	Benefit      float64        `json:"benefit"`
	Setup        rtime.Duration `json:"setup,omitempty"`
	Compensation rtime.Duration `json:"compensation,omitempty"`
	PostProcess  rtime.Duration `json:"postProcess,omitempty"`

	// PayloadBytes is the request size shipped to the server for this
	// level; queueing server models use it for transfer delays.
	PayloadBytes int64 `json:"payloadBytes,omitempty"`

	// ServerID optionally routes this level to a named component when
	// the system has several unreliable servers (edge box, cloud GPU,
	// …). Empty selects the default server. Because each level carries
	// its own benefit point and probed budget, the Offloading Decision
	// Manager chooses between components exactly as it chooses between
	// image sizes — no new machinery.
	ServerID string `json:"serverID,omitempty"`
}

// SetupAt returns Ci,1 for level j (index into Levels), falling back
// to the task-wide Setup when the level does not override it.
func (t *Task) SetupAt(j int) rtime.Duration {
	if s := t.Levels[j].Setup; s > 0 {
		return s
	}
	return t.Setup
}

// CompensationAt returns Ci,2 for level j, falling back to the
// task-wide Compensation.
func (t *Task) CompensationAt(j int) rtime.Duration {
	if c := t.Levels[j].Compensation; c > 0 {
		return c
	}
	return t.Compensation
}

// PostProcessAt returns Ci,3 for level j, falling back to the
// task-wide PostProcess.
func (t *Task) PostProcessAt(j int) rtime.Duration {
	if p := t.Levels[j].PostProcess; p > 0 {
		return p
	}
	return t.PostProcess
}

// Utilization returns the exact local utilization Ci/Ti.
func (t *Task) Utilization() *big.Rat {
	return rtime.Ratio(t.LocalWCET, t.Period)
}

// Density returns the exact local density Ci/Di, the demand rate that
// matters for constrained-deadline tasks.
func (t *Task) Density() *big.Rat {
	return rtime.Ratio(t.LocalWCET, t.Deadline)
}

// GuaranteedAt reports whether level j's response budget is covered by
// a known pessimistic server bound (§3's extension): the result is
// then guaranteed to arrive within Ri and only post-processing runs in
// the second phase.
func (t *Task) GuaranteedAt(j int) bool {
	return t.ServerWCRT > 0 && t.Levels[j].Response >= t.ServerWCRT
}

// SecondPhaseAt returns the WCET the analysis must budget for the
// second sub-job at level j: Ci,3 when the level is guaranteed by the
// server bound, Ci,2 otherwise.
func (t *Task) SecondPhaseAt(j int) rtime.Duration {
	if t.GuaranteedAt(j) {
		return t.PostProcessAt(j)
	}
	return t.CompensationAt(j)
}

// OffloadWeight returns the exact schedulability weight of offloading
// at level j with response-time budget Levels[j].Response:
//
//	wi,j = (Ci,1 + Ci,2) / (Di − ri,j)
//
// per §5.2 of the paper — with Ci,3 in place of Ci,2 when the level is
// guaranteed by a pessimistic server bound (§3's extension). It
// returns an error when ri,j ≥ Di (no time would remain for the second
// phase) or when the involved WCETs are missing.
func (t *Task) OffloadWeight(j int) (*big.Rat, error) {
	if j < 0 || j >= len(t.Levels) {
		return nil, fmt.Errorf("task %d: level %d out of range", t.ID, j)
	}
	r := t.Levels[j].Response
	slack := t.Deadline - r
	if slack <= 0 {
		return nil, fmt.Errorf("task %d level %d: response budget %v ≥ deadline %v", t.ID, j, r, t.Deadline)
	}
	c1, c2 := t.SetupAt(j), t.SecondPhaseAt(j)
	if c1 <= 0 || c2 <= 0 {
		return nil, fmt.Errorf("task %d level %d: setup/second-phase WCET missing", t.ID, j)
	}
	return rtime.Ratio(c1+c2, slack), nil
}

// Offloadable reports whether the task has at least one offloading
// level.
func (t *Task) Offloadable() bool { return len(t.Levels) > 0 }

// EffectiveWeight returns Weight, defaulting to 1 when unset.
func (t *Task) EffectiveWeight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// Validate checks the structural and timing invariants of the task
// model. It returns a descriptive error for the first violation found.
func (t *Task) Validate() error {
	switch {
	case t.Period <= 0:
		return fmt.Errorf("task %d: period %v must be positive", t.ID, t.Period)
	case t.Deadline <= 0:
		return fmt.Errorf("task %d: deadline %v must be positive", t.ID, t.Deadline)
	case t.Deadline > t.Period:
		return fmt.Errorf("task %d: deadline %v exceeds period %v (arbitrary deadlines unsupported)", t.ID, t.Deadline, t.Period)
	case t.LocalWCET <= 0:
		return fmt.Errorf("task %d: local WCET %v must be positive", t.ID, t.LocalWCET)
	case t.LocalWCET > t.Deadline:
		return fmt.Errorf("task %d: local WCET %v exceeds deadline %v", t.ID, t.LocalWCET, t.Deadline)
	}
	if t.Setup < 0 || t.Compensation < 0 || t.PostProcess < 0 {
		return fmt.Errorf("task %d: negative WCET", t.ID)
	}
	// NaN compares false with everything, and an infinite weighted
	// benefit turns benefit differences into NaN (Inf − Inf), so
	// either would leave the objective the decision pipeline
	// maximizes without an order.
	if !finite(t.Weight) {
		return fmt.Errorf("task %d: weight %g must be finite", t.ID, t.Weight)
	}
	if !finite(t.LocalBenefit) || !finite(t.EffectiveWeight()*t.LocalBenefit) {
		return fmt.Errorf("task %d: local benefit %g (weight %g) must be finite", t.ID, t.LocalBenefit, t.Weight)
	}
	if t.ServerWCRT < 0 {
		return fmt.Errorf("task %d: negative server response bound", t.ID)
	}
	if t.ServerWCRT > 0 && len(t.Levels) > 0 {
		for j := range t.Levels {
			if t.GuaranteedAt(j) && t.PostProcessAt(j) <= 0 {
				return fmt.Errorf("task %d level %d: guaranteed levels need a positive post-processing WCET", t.ID, j)
			}
		}
	}
	for j, lv := range t.Levels {
		if !finite(lv.Benefit) || !finite(t.EffectiveWeight()*lv.Benefit) {
			return fmt.Errorf("task %d level %d: benefit %g (weight %g) must be finite", t.ID, j, lv.Benefit, t.Weight)
		}
		if lv.Response <= 0 {
			return fmt.Errorf("task %d level %d: response budget %v must be positive", t.ID, j, lv.Response)
		}
		if j > 0 && lv.Response <= t.Levels[j-1].Response {
			return fmt.Errorf("task %d level %d: response budgets must be strictly increasing (%v after %v)", t.ID, j, lv.Response, t.Levels[j-1].Response)
		}
		if lv.Benefit < t.LocalBenefit {
			return fmt.Errorf("task %d level %d: benefit %g below local benefit %g (Gi must be non-decreasing)", t.ID, j, lv.Benefit, t.LocalBenefit)
		}
		if j > 0 && lv.Benefit < t.Levels[j-1].Benefit {
			return fmt.Errorf("task %d level %d: benefit %g decreases from %g", t.ID, j, lv.Benefit, t.Levels[j-1].Benefit)
		}
		c1, c2, c3 := t.SetupAt(j), t.CompensationAt(j), t.PostProcessAt(j)
		if c1 <= 0 {
			return fmt.Errorf("task %d level %d: setup WCET must be positive for offloadable tasks", t.ID, j)
		}
		if c2 <= 0 {
			return fmt.Errorf("task %d level %d: compensation WCET must be positive for offloadable tasks", t.ID, j)
		}
		if c3 > c2 {
			return fmt.Errorf("task %d level %d: post-processing WCET %v exceeds compensation WCET %v (paper assumes Ci,3 ≤ Ci,2)", t.ID, j, c3, c2)
		}
		if lv.PayloadBytes < 0 {
			return fmt.Errorf("task %d level %d: negative payload", t.ID, j)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// String returns a compact human-readable summary.
func (t *Task) String() string {
	name := t.Name
	if name == "" {
		name = fmt.Sprintf("τ%d", t.ID)
	}
	return fmt.Sprintf("%s(C=%v C1=%v C2=%v D=%v T=%v levels=%d)",
		name, t.LocalWCET, t.Setup, t.Compensation, t.Deadline, t.Period, len(t.Levels))
}

// Set is an ordered collection of tasks forming one system.
type Set []*Task

// ErrDuplicateID reports two tasks sharing an ID within a Set.
var ErrDuplicateID = errors.New("task: duplicate task ID in set")

// Validate checks every task and the cross-task invariants (unique
// IDs).
func (s Set) Validate() error {
	seen := make(map[int]bool, len(s))
	for _, t := range s {
		if t == nil {
			return errors.New("task: nil task in set")
		}
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateID, t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// TotalUtilization returns the exact Σ Ci/Ti of the pure-local system.
func (s Set) TotalUtilization() *big.Rat {
	u := new(big.Rat)
	for _, t := range s {
		u.Add(u, t.Utilization())
	}
	return u
}

// ByID returns the task with the given ID, or nil.
func (s Set) ByID(id int) *Task {
	for _, t := range s {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Clone deep-copies the set; the returned tasks share no memory with
// the originals.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for i, t := range s {
		c := *t
		c.Levels = append([]Level(nil), t.Levels...)
		out[i] = &c
	}
	return out
}
