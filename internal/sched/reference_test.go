package sched

// reference_test.go retains the original linear-scan dispatcher as a
// test-only oracle for the event-calendar engine. It is the seed
// implementation verbatim except for two deliberate alignments with
// the engine's determinism contract:
//
//   - the wake and deadline queues break ties on (task ID, seq) —
//     the seed left equal keys in container/heap's arbitrary order,
//     which is unobservable except through the exact interleavings
//     the differential tests compare;
//   - trace segments go through trace.Append, so the coalescing
//     invariant holds for both recorders and the engine's different
//     (but content-equal) slice boundaries compare equal.
//
// Everything else keeps the seed's shape on purpose: per-assignment
// linear release scans, nextEvent recomputed from scratch at every
// use, lazy deletion of aborted jobs (their pending wake timers still
// count as events — the behavior the engine's phantomEnd reproduces),
// and map-backed FixedPriority ranks.

import (
	"container/heap"
	"fmt"
	"sort"

	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/trace"
)

type refJob struct {
	asg      *Assignment
	seq      int64
	release  rtime.Instant
	deadline rtime.Instant

	phase       jobPhase
	kind        trace.Kind
	subDeadline rtime.Instant
	subRelease  rtime.Instant
	wcet        rtime.Duration
	remaining   rtime.Duration

	prio int64

	wake    rtime.Instant
	hit     bool
	aborted bool
}

// refReady orders runnable sub-jobs by (priority, task ID, seq).
type refReady []*refJob

func (q refReady) Len() int { return len(q) }
func (q refReady) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.asg.Task.ID != b.asg.Task.ID {
		return a.asg.Task.ID < b.asg.Task.ID
	}
	return a.seq < b.seq
}
func (q refReady) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refReady) Push(x interface{}) { *q = append(*q, x.(*refJob)) }
func (q *refReady) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// refWaking orders suspended jobs by (wake, task ID, seq).
type refWaking []*refJob

func (q refWaking) Len() int { return len(q) }
func (q refWaking) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	if a.asg.Task.ID != b.asg.Task.ID {
		return a.asg.Task.ID < b.asg.Task.ID
	}
	return a.seq < b.seq
}
func (q refWaking) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refWaking) Push(x interface{}) { *q = append(*q, x.(*refJob)) }
func (q *refWaking) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// refDeadlines orders live jobs by (absolute deadline, task ID, seq).
type refDeadlines []*refJob

func (q refDeadlines) Len() int { return len(q) }
func (q refDeadlines) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.asg.Task.ID != b.asg.Task.ID {
		return a.asg.Task.ID < b.asg.Task.ID
	}
	return a.seq < b.seq
}
func (q refDeadlines) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refDeadlines) Push(x interface{}) { *q = append(*q, x.(*refJob)) }
func (q *refDeadlines) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

type refSim struct {
	cfg *Config
	res *Result
	// tr records the trace when Config.TraceSink is a *trace.Trace
	// (the reference writes the in-memory trace directly; other sinks
	// record nothing).
	tr *trace.Trace

	now    rtime.Instant
	ready  refReady
	waking refWaking

	nextRelease []rtime.Instant
	seq         []int64
	rank        map[int]int64
	deadlines   refDeadlines
}

// runReference executes the simulation on the reference dispatcher.
func runReference(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &refSim{cfg: &cfg, res: &Result{
		PerTask: make(map[int]*TaskStats, len(cfg.Assignments)),
		Horizon: cfg.Horizon,
		Policy:  cfg.Policy,
	}}
	s.tr, _ = cfg.TraceSink.(*trace.Trace)
	s.run()
	return s.res, nil
}

func (s *refSim) prioOf(j *refJob) int64 {
	if s.cfg.Policy == FixedPriority {
		return s.rank[j.asg.Task.ID]
	}
	return int64(j.subDeadline)
}

func (s *refSim) run() {
	cfg := s.cfg
	s.nextRelease = make([]rtime.Instant, len(cfg.Assignments))
	s.seq = make([]int64, len(cfg.Assignments))
	for i := range cfg.Assignments {
		t := cfg.Assignments[i].Task
		s.res.PerTask[t.ID] = &TaskStats{TaskID: t.ID}
	}
	if cfg.Policy == FixedPriority {
		type dt struct {
			d  rtime.Duration
			id int
		}
		order := make([]dt, 0, len(cfg.Assignments))
		for i := range cfg.Assignments {
			t := cfg.Assignments[i].Task
			order = append(order, dt{t.Deadline, t.ID})
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].d != order[j].d {
				return order[i].d < order[j].d
			}
			return order[i].id < order[j].id
		})
		s.rank = make(map[int]int64, len(order))
		for r, o := range order {
			s.rank[o.id] = int64(r)
		}
	}
	horizon := rtime.Instant(cfg.Horizon)

	for {
		s.admit(horizon)
		if len(s.ready) == 0 {
			next := s.nextEvent(horizon)
			if next == rtime.Forever {
				s.res.Makespan = rtime.Duration(s.now)
				break
			}
			s.now = next
			continue
		}
		j := s.ready[0]
		if j.aborted {
			heap.Pop(&s.ready)
			continue
		}
		slice := j.remaining
		if next := s.nextEvent(horizon); next != rtime.Forever {
			if gap := next.Sub(s.now); gap < slice {
				slice = gap
			}
		}
		start := s.now
		s.now = s.now.Add(slice)
		j.remaining -= slice
		s.res.CPUBusy += slice
		if s.tr != nil {
			s.tr.Append(trace.Segment{
				Start: start, End: s.now,
				Sub: trace.SubID{TaskID: j.asg.Task.ID, Seq: j.seq, Kind: j.kind},
			})
		}
		if j.remaining == 0 {
			heap.Pop(&s.ready)
			s.complete(j)
		}
	}
}

func (s *refSim) admit(horizon rtime.Instant) {
	for i := range s.cfg.Assignments {
		for s.nextRelease[i] <= s.now && s.nextRelease[i] < horizon {
			s.release(i, s.nextRelease[i])
			s.advanceRelease(i)
		}
	}
	for len(s.waking) > 0 && s.waking[0].wake <= s.now {
		j := heap.Pop(&s.waking).(*refJob)
		if j.aborted {
			continue
		}
		s.resume(j)
	}
	if s.cfg.OnMiss == AbortAtDeadline {
		for len(s.deadlines) > 0 && s.deadlines[0].deadline <= s.now {
			j := heap.Pop(&s.deadlines).(*refJob)
			if j.phase == phaseDone || j.aborted {
				continue
			}
			s.abort(j)
		}
	}
}

func (s *refSim) abort(j *refJob) {
	j.aborted = true
	if j.phase == phaseFirst || j.phase == phaseSecond {
		s.recordSubAbandoned(j)
	}
	t := j.asg.Task
	st := s.res.PerTask[t.ID]
	st.Misses++
	st.Aborted++
	s.res.Misses++
	outcome := RanLocal
	if j.asg.Offload {
		outcome = OffloadMissed
	}
	s.res.Jobs = append(s.res.Jobs, JobResult{
		TaskID:   t.ID,
		Seq:      j.seq,
		Release:  j.release,
		Deadline: j.deadline,
		Finish:   j.deadline,
		Outcome:  outcome,
		Missed:   true,
		Finished: false,
	})
	j.phase = phaseDone
}

func (s *refSim) recordSubAbandoned(j *refJob) {
	if s.tr == nil {
		return
	}
	s.tr.Subs = append(s.tr.Subs, trace.SubRecord{
		Sub:         trace.SubID{TaskID: j.asg.Task.ID, Seq: j.seq, Kind: j.kind},
		Release:     j.subRelease,
		Deadline:    j.subDeadline,
		WCET:        j.wcet,
		Abandoned:   true,
		AbandonTime: s.now,
	})
}

func (s *refSim) nextEvent(horizon rtime.Instant) rtime.Instant {
	next := rtime.Forever
	for i := range s.cfg.Assignments {
		if r := s.nextRelease[i]; r < horizon && r < next {
			next = r
		}
	}
	if len(s.waking) > 0 && s.waking[0].wake < next {
		next = s.waking[0].wake
	}
	if s.cfg.OnMiss == AbortAtDeadline {
		for len(s.deadlines) > 0 && (s.deadlines[0].phase == phaseDone || s.deadlines[0].aborted) {
			heap.Pop(&s.deadlines)
		}
		if len(s.deadlines) > 0 && s.deadlines[0].deadline < next {
			next = s.deadlines[0].deadline
		}
	}
	return next
}

func (s *refSim) advanceRelease(i int) {
	t := s.cfg.Assignments[i].Task
	gap := t.Period
	if s.cfg.ReleaseJitter > 0 {
		gap += rtime.Duration(s.cfg.RNG.Int64N(int64(s.cfg.ReleaseJitter) + 1))
	}
	s.nextRelease[i] = s.nextRelease[i].Add(gap)
}

func (s *refSim) release(i int, at rtime.Instant) {
	a := &s.cfg.Assignments[i]
	t := a.Task
	j := &refJob{
		asg:      a,
		seq:      s.seq[i],
		release:  at,
		deadline: at.Add(t.Deadline),
		phase:    phaseFirst,
	}
	s.seq[i]++
	st := s.res.PerTask[t.ID]
	st.Released++
	st.BaselineSum += t.LocalBenefit
	s.res.TotalBaseline += t.EffectiveWeight() * t.LocalBenefit

	if a.Offload {
		j.kind = trace.Setup
		j.wcet = t.SetupAt(a.Level)
		switch s.cfg.Policy {
		case SplitEDF:
			d1, err := dbf.SplitDeadline(t.SetupAt(a.Level), t.SecondPhaseAt(a.Level), t.Deadline, a.Budget())
			if err != nil {
				panic(fmt.Sprintf("sched: split deadline: %v", err))
			}
			j.subDeadline = at.Add(d1)
		case NaiveEDF, FixedPriority:
			j.subDeadline = j.deadline
		}
	} else {
		j.kind = trace.Local
		j.wcet = t.LocalWCET
		j.subDeadline = j.deadline
	}
	j.remaining = j.wcet
	j.subRelease = at
	j.prio = s.prioOf(j)
	heap.Push(&s.ready, j)
	if s.cfg.OnMiss == AbortAtDeadline {
		heap.Push(&s.deadlines, j)
	}
}

func (s *refSim) complete(j *refJob) {
	s.recordSub(j, true)
	t := j.asg.Task
	switch j.phase {
	case phaseFirst:
		if !j.asg.Offload {
			s.finishJob(j, RanLocal, t.LocalBenefit)
			return
		}
		level := t.Levels[j.asg.Level]
		srv := s.cfg.Server
		if level.ServerID != "" {
			srv = s.cfg.Servers[level.ServerID]
		}
		resp := srv.Respond(s.now, t.ID, level.PayloadBytes)
		if resp.Latency < 0 {
			resp.Latency = 0
		}
		budget := j.asg.Budget()
		if resp.Arrives && resp.Latency <= budget {
			j.hit = true
			j.wake = s.now.Add(resp.Latency)
		} else {
			j.hit = false
			j.wake = s.now.Add(budget)
		}
		j.phase = phaseSuspended
		s.res.RadioBusy += j.wake.Sub(s.now)
		heap.Push(&s.waking, j)
	case phaseSecond:
		if j.hit {
			s.finishJob(j, OffloadHit, t.Levels[j.asg.Level].Benefit)
		} else {
			s.finishJob(j, OffloadMissed, t.LocalBenefit)
		}
	default:
		panic("sched: completing job in unexpected phase")
	}
}

func (s *refSim) resume(j *refJob) {
	t := j.asg.Task
	j.phase = phaseSecond
	j.subRelease = j.wake
	j.subDeadline = j.deadline
	j.prio = s.prioOf(j)
	if j.hit {
		j.kind = trace.Post
		j.wcet = t.PostProcessAt(j.asg.Level)
	} else {
		j.kind = trace.Comp
		j.wcet = t.CompensationAt(j.asg.Level)
	}
	j.remaining = j.wcet
	if j.wcet == 0 {
		s.recordSub(j, true)
		if j.hit {
			s.finishJob(j, OffloadHit, t.Levels[j.asg.Level].Benefit)
		} else {
			s.finishJob(j, OffloadMissed, t.LocalBenefit)
		}
		return
	}
	heap.Push(&s.ready, j)
}

func (s *refSim) recordSub(j *refJob, completed bool) {
	if s.tr == nil {
		return
	}
	rec := trace.SubRecord{
		Sub:      trace.SubID{TaskID: j.asg.Task.ID, Seq: j.seq, Kind: j.kind},
		Release:  j.subRelease,
		Deadline: j.subDeadline,
		WCET:     j.wcet,
	}
	if completed {
		rec.Completed = true
		rec.Completion = s.now
	}
	s.tr.Subs = append(s.tr.Subs, rec)
}

func (s *refSim) finishJob(j *refJob, out Outcome, benefit float64) {
	j.phase = phaseDone
	t := j.asg.Task
	st := s.res.PerTask[t.ID]
	missed := s.now > j.deadline
	jr := JobResult{
		TaskID:   t.ID,
		Seq:      j.seq,
		Release:  j.release,
		Deadline: j.deadline,
		Finish:   s.now,
		Outcome:  out,
		Benefit:  benefit,
		Missed:   missed,
		Finished: true,
	}
	s.res.Jobs = append(s.res.Jobs, jr)
	st.Finished++
	switch out {
	case RanLocal:
		st.LocalRuns++
	case OffloadHit:
		st.Hits++
	case OffloadMissed:
		st.Compensations++
		if t.GuaranteedAt(j.asg.Level) {
			st.BoundViolations++
		}
	}
	if missed {
		st.Misses++
		s.res.Misses++
	}
	st.BenefitSum += benefit
	s.res.TotalBenefit += t.EffectiveWeight() * benefit
	lat := s.now.Sub(j.release)
	if lat > st.WorstLatency {
		st.WorstLatency = lat
	}
	if s.cfg.CollectLatencies {
		st.Latencies = append(st.Latencies, lat)
	}
}
