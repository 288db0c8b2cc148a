// Package sched simulates the paper's EDF-based scheduling algorithm
// (§5.1) on a single preemptive processor.
//
// A job of an offloaded task is split into two sub-jobs: the setup
// sub-job (Ci,1) receives the proportional relative deadline
// Di,1 = Ci,1·(Di−Ri)/(Ci,1+Ci,2); when it completes, the offload
// request goes to the (timing unreliable) server and the task
// self-suspends. The second sub-job is triggered either by the result
// returning within Ri — post-processing, Ci,3 — or by the Ri timer
// expiring — local compensation, Ci,2. Either way its absolute
// deadline is the job's original release + Di. All ready sub-jobs are
// dispatched by plain EDF over their absolute deadlines.
//
// The simulator is an event-calendar engine: pending releases, wake
// timers, and (under AbortAtDeadline) job deadlines live in typed
// index-tracked min-heaps (package eventq), so every scheduling event
// costs O(log n) and the steady state allocates nothing — job records
// are recycled through a free list. It is event-driven and exact on
// the microsecond grid, can record full execution traces for the
// invariant checkers in package trace, and also implements the
// naive-EDF baseline the paper argues against (both phases sharing
// the absolute deadline release+Di). engine_probe_test.go and the
// differential tests in diff_test.go pin the engine to the retained
// reference dispatcher (reference_test.go): same Result, same
// per-task statistics, same traces, on every policy.
package sched

import (
	"fmt"

	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// Policy selects the deadline-assignment rule for offloaded jobs.
type Policy int

const (
	// SplitEDF is the paper's algorithm: the setup sub-job gets the
	// proportional deadline Di,1.
	SplitEDF Policy = iota
	// NaiveEDF assigns both phases the job's full absolute deadline —
	// the strawman of §5.1 that performs poorly.
	NaiveEDF
	// FixedPriority dispatches by deadline-monotonic task priorities
	// (both phases of an offloaded job inherit the task's priority) —
	// the classic alternative the paper rules out for self-suspending
	// tasks, citing Ridouard et al. Included as a baseline for the FP
	// ablation; pair it with rta.SuspensionOblivious for analysis.
	FixedPriority
)

// Assignment binds a task to its offloading decision.
type Assignment struct {
	Task *task.Task
	// Offload selects offloaded execution at the given level; false
	// means pure local execution and Level is ignored.
	Offload bool
	// Level indexes Task.Levels; its Response is the budget Ri.
	Level int
}

// Budget returns Ri for offloaded assignments.
func (a Assignment) Budget() rtime.Duration {
	if !a.Offload {
		return 0
	}
	return a.Task.Levels[a.Level].Response
}

// Validate checks the assignment is internally consistent and — for
// offloaded tasks — that the split deadline exists.
func (a Assignment) Validate() error {
	if a.Task == nil {
		return fmt.Errorf("sched: assignment without task")
	}
	if err := a.Task.Validate(); err != nil {
		return err
	}
	if !a.Offload {
		return nil
	}
	if a.Level < 0 || a.Level >= len(a.Task.Levels) {
		return fmt.Errorf("sched: task %d level %d out of range", a.Task.ID, a.Level)
	}
	_, err := dbf.SplitDeadline(a.Task.SetupAt(a.Level), a.Task.SecondPhaseAt(a.Level),
		a.Task.Deadline, a.Budget())
	return err
}

// Config parameterizes one simulation run.
type Config struct {
	Assignments []Assignment
	// Server handles offload requests; required when any assignment
	// offloads a level without a ServerID.
	Server server.Server
	// Servers routes levels with a non-empty ServerID to named
	// components (edge box, cloud GPU, …).
	Servers map[string]server.Server
	// Horizon: jobs are released strictly before this instant; the run
	// then drains all released jobs.
	Horizon rtime.Duration
	// Policy selects deadline assignment (default SplitEDF).
	Policy Policy
	// ReleaseJitter > 0 makes releases sporadic: each inter-arrival is
	// Ti plus a uniform draw from [0, ReleaseJitter]. Requires RNG.
	ReleaseJitter rtime.Duration
	// RNG drives sporadic jitter; may be nil for periodic releases.
	RNG *stats.RNG
	// TraceSink streams the execution trace — coalesced segments plus
	// sub-job lifecycle events — to a trace.Sink as the run progresses,
	// so long horizons verify (trace.StreamChecker) in bounded memory.
	// A *trace.Trace sink materializes the trace in memory for the
	// caller to read. The sink's Finish error surfaces from Run.
	TraceSink trace.Sink
	// OnMiss selects the overrun policy (default ContinueLate).
	OnMiss MissPolicy
	// CollectLatencies stores every job's response time per task,
	// enabling Result.LatencyPercentile.
	CollectLatencies bool
	// EventQueue selects the event-calendar representation (default
	// AutoQueue).
	EventQueue QueueMode
	// DiscardJobResults drops the per-job Result.Jobs log (the per-task
	// statistics, miss counts, and benefit totals are still collected).
	// At campaign scale the job log is the last O(jobs) allocation; the
	// aggregates are what the campaign keeps anyway.
	DiscardJobResults bool
}

// QueueMode selects the representation of the engine's time-keyed
// event queues (releases, wake timers, deadline expiries).
type QueueMode int

const (
	// AutoQueue uses binary heaps for small systems and switches the
	// time queues to hierarchical time wheels (eventq.Calendar) from
	// wheelThreshold tasks up. Both orders are bit-identical, so the
	// choice is purely a performance trade.
	AutoQueue QueueMode = iota
	// ForceHeap keeps every queue a binary heap regardless of size.
	ForceHeap
	// ForceWheel uses time wheels for the time queues at any size.
	ForceWheel
)

// wheelThreshold is the task count at which AutoQueue switches the
// time queues to wheels: below it the heaps' cache locality wins,
// above it heap depth (log n cache misses per event) dominates.
const wheelThreshold = 512

// validate checks the configuration ahead of a run; shared by the
// engine and the retained reference dispatcher.
func (cfg *Config) validate() error {
	if cfg.Horizon <= 0 {
		return fmt.Errorf("sched: horizon %v must be positive", cfg.Horizon)
	}
	if len(cfg.Assignments) == 0 {
		return fmt.Errorf("sched: no assignments")
	}
	ids := map[int]bool{}
	for i := range cfg.Assignments {
		a := &cfg.Assignments[i]
		if err := a.Validate(); err != nil {
			return err
		}
		if ids[a.Task.ID] {
			return fmt.Errorf("sched: duplicate task %d", a.Task.ID)
		}
		ids[a.Task.ID] = true
		if a.Offload {
			if id := a.Task.Levels[a.Level].ServerID; id != "" {
				if cfg.Servers[id] == nil {
					return fmt.Errorf("sched: task %d level %d routes to unknown server %q", a.Task.ID, a.Level, id)
				}
			} else if cfg.Server == nil {
				return fmt.Errorf("sched: offloaded assignments require a server")
			}
		}
	}
	if cfg.ReleaseJitter > 0 && cfg.RNG == nil {
		return fmt.Errorf("sched: release jitter requires an RNG")
	}
	if cfg.Policy != SplitEDF && cfg.Policy != NaiveEDF && cfg.Policy != FixedPriority {
		return fmt.Errorf("sched: unknown policy %d", int(cfg.Policy))
	}
	if cfg.OnMiss != ContinueLate && cfg.OnMiss != AbortAtDeadline {
		return fmt.Errorf("sched: unknown miss policy %d", int(cfg.OnMiss))
	}
	if cfg.EventQueue != AutoQueue && cfg.EventQueue != ForceHeap && cfg.EventQueue != ForceWheel {
		return fmt.Errorf("sched: unknown event queue mode %d", int(cfg.EventQueue))
	}
	return nil
}

// MissPolicy controls what happens when a job reaches its absolute
// deadline unfinished.
type MissPolicy int

const (
	// ContinueLate keeps executing the late job (counted as a miss) —
	// late results may still be useful, and backlog cascades visibly.
	ContinueLate MissPolicy = iota
	// AbortAtDeadline discards a job's remaining work the instant its
	// deadline passes — the firm-deadline view, useful for overload
	// studies of the baselines where late frames are worthless.
	AbortAtDeadline
)

// Outcome classifies how a job obtained its result.
type Outcome int

const (
	// RanLocal: task was assigned local execution.
	RanLocal Outcome = iota
	// OffloadHit: the server result returned within the budget.
	OffloadHit
	// OffloadMissed: the budget expired and compensation ran.
	OffloadMissed
)

// JobResult records one completed (or abandoned) job.
type JobResult struct {
	TaskID   int
	Seq      int64
	Release  rtime.Instant
	Deadline rtime.Instant
	// Finish is the completion instant of the job's last sub-job.
	Finish   rtime.Instant
	Outcome  Outcome
	Benefit  float64 // level benefit on OffloadHit, else the local benefit
	Missed   bool    // deadline miss (or unfinished at drain end)
	Finished bool
}

// TaskStats aggregates per-task counters.
type TaskStats struct {
	TaskID int
	// ServerID records which server the task's offloaded sub-jobs are
	// routed to (the assignment level's ServerID; empty for the
	// default server or for local-only tasks). Fleet runs use it to
	// attribute per-server traffic in results and traces.
	ServerID      string
	Released      int
	Finished      int
	Misses        int
	Hits          int // results served within budget
	Compensations int
	LocalRuns     int
	// BoundViolations counts compensations on levels that a declared
	// pessimistic server bound claimed could never time out (§3's
	// extension). Non-zero means the bound was wrong and the
	// configuration's analysis was unsound.
	BoundViolations int
	// Aborted counts jobs discarded by the AbortAtDeadline policy
	// (each also counts as a miss).
	Aborted    int
	BenefitSum float64
	// BaselineSum is what the task would have earned executing every
	// job locally — the normalization denominator of Figure 2.
	BaselineSum  float64
	WorstLatency rtime.Duration // worst job response time (finish − release)
	// Latencies holds every finished job's response time when
	// Config.CollectLatencies is set.
	Latencies []rtime.Duration
}

// Result is the outcome of a simulation run.
type Result struct {
	Jobs    []JobResult
	PerTask map[int]*TaskStats
	Misses  int
	Horizon rtime.Duration
	Policy  Policy
	// TotalBenefit sums job benefits weighted by task weight;
	// TotalBaseline is the all-local normalization.
	TotalBenefit  float64
	TotalBaseline float64
	// CPUBusy is the total processor time spent on sub-jobs; RadioBusy
	// the accumulated offload suspension windows (request in flight or
	// timer pending); Makespan the completion instant of the last job.
	// Together they feed the PowerModel energy account.
	CPUBusy   rtime.Duration
	RadioBusy rtime.Duration
	Makespan  rtime.Duration
}

// NormalizedBenefit returns TotalBenefit/TotalBaseline (1.0 = no
// benefit over pure local execution), or 1 when the baseline is empty.
func (r *Result) NormalizedBenefit() float64 {
	if r.TotalBaseline <= 0 {
		return 1
	}
	return r.TotalBenefit / r.TotalBaseline
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := newSim(&cfg)
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.res, nil
}

// newSim builds an engine for a validated configuration.
func newSim(cfg *Config) *sim {
	return &sim{cfg: cfg, sink: cfg.TraceSink, res: &Result{
		PerTask: make(map[int]*TaskStats, len(cfg.Assignments)),
		Horizon: cfg.Horizon,
		Policy:  cfg.Policy,
	}}
}

// LatencyPercentile returns the p-th percentile (0..100) of a task's
// collected response times. It requires Config.CollectLatencies and at
// least one finished job; otherwise ok is false.
func (r *Result) LatencyPercentile(taskID int, p float64) (rtime.Duration, bool) {
	st := r.PerTask[taskID]
	if st == nil || len(st.Latencies) == 0 || p < 0 || p > 100 {
		return 0, false
	}
	xs := make([]float64, len(st.Latencies))
	for i, l := range st.Latencies {
		xs[i] = float64(l)
	}
	return rtime.Duration(stats.Percentile(xs, p)), true
}
