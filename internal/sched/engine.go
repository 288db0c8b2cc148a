package sched

// This file is the event-calendar simulation engine behind Run. The
// retained reference dispatcher in reference_test.go implements the
// same semantics with linear scans and lazy deletion; the differential
// tests pin the two to bit-identical results.
//
// Determinism contract: every queue orders its entries by a total
// (key, task ID, job seq) triple, so the schedule is a pure function
// of the configuration — never of heap layout or map iteration order.
//
// Event accounting: the engine removes aborted suspended jobs from the
// wake queue eagerly, but the reference semantics still count their
// pending wake timers as events (the processor stays "on" until the
// last timer fires). phantomEnd carries the latest such timer so the
// reported Makespan is identical.

import (
	"fmt"
	"sort"

	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched/eventq"
	"rtoffload/internal/server"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// jobPhase is the execution state of a job.
type jobPhase int

const (
	phaseFirst     jobPhase = iota // Local or Setup sub-job on the CPU
	phaseSuspended                 // waiting for server result / timer
	phaseSecond                    // Post or Comp sub-job on the CPU
	phaseDone
)

// jobState is one live job in the arena. States are recycled through
// sim.free once the job finishes or is aborted, so steady-state
// dispatch allocates nothing.
type jobState struct {
	ai       int32 // assignment index into sim.info
	seq      int64
	release  rtime.Instant
	deadline rtime.Instant // release + D

	phase       jobPhase
	kind        trace.Kind    // current sub-job kind
	subDeadline rtime.Instant // current sub-job EDF deadline
	subRelease  rtime.Instant
	wcet        rtime.Duration
	remaining   rtime.Duration

	// prio is the dispatch key: the sub-job's absolute deadline under
	// the EDF policies, the task's fixed rank under FixedPriority.
	prio int64

	wake rtime.Instant // for phaseSuspended
	hit  bool          // result arrived within budget
}

// asgInfo caches everything the dispatch loop needs about one
// assignment, resolved once up front: split deadlines, server routing,
// WCETs, weights. Indexing by assignment slot replaces the per-event
// map lookups of the reference dispatcher.
type asgInfo struct {
	task    *task.Task
	taskID  int   // Task.ID
	tie     int64 // Task.ID as a heap tie-break key
	offload bool

	srv     server.Server // resolved offload target (nil when local)
	payload int64
	budget  rtime.Duration
	d1      rtime.Duration // SplitDeadline Di,1 (offload only)

	setup     rtime.Duration
	post      rtime.Duration
	comp      rtime.Duration
	localWCET rtime.Duration

	period   rtime.Duration
	deadline rtime.Duration

	weight       float64
	localBenefit float64
	levelBenefit float64
	guaranteed   bool

	// rank is the deadline-monotonic priority under FixedPriority
	// (lower = more urgent).
	rank int64
}

type sim struct {
	cfg *Config
	res *Result

	now     rtime.Instant
	horizon rtime.Instant

	info  []asgInfo
	stats []TaskStats // backing store for res.PerTask, by assignment index

	// nextRelease[i] is the next release instant for assignment i;
	// seq[i] the next job sequence number.
	nextRelease []rtime.Instant
	seq         []int64

	// jobs is the job arena; free holds recycled slots. Heap handles
	// are arena indices (releases uses assignment indices instead).
	//
	//rtlint:arena
	jobs []jobState
	//rtlint:arena
	free []int32

	// The event calendar. ready is keyed by (prio, task, seq) — under
	// FixedPriority the key is a rank, not an instant, so it stays a
	// heap. The three *time* queues are Calendars: zero-valued they are
	// plain heaps; init switches them to time wheels at fleet scale
	// (Config.EventQueue), with bit-identical pop order either way.
	ready     eventq.Heap
	waking    eventq.Calendar
	deadlines eventq.Calendar
	releases  eventq.Calendar

	// sink receives the execution trace as it happens (Config.TraceSink;
	// nil records nothing). pend is the engine-level
	// coalescing buffer: dispatch slices are merged here and flushed as
	// maximal same-sub segments, while lifecycle events stream through
	// immediately — the causal order trace.Sink documents.
	sink    trace.Sink
	pend    trace.Segment
	hasPend bool

	abortPolicy bool
	fixedPrio   bool

	// phantomEnd is the latest wake timer of a job aborted while
	// suspended; see the file comment on event accounting.
	phantomEnd rtime.Instant

	// probes counts nextEvent computations; the dispatch loop caches
	// the result and recomputes only when the event set changed (see
	// engine_probe_test.go).
	probes int64
}

// init resolves the configuration into the flat per-assignment tables
// and seeds the release calendar.
func (s *sim) init() {
	cfg := s.cfg
	n := len(cfg.Assignments)
	s.horizon = rtime.Instant(cfg.Horizon)
	s.abortPolicy = cfg.OnMiss == AbortAtDeadline
	s.fixedPrio = cfg.Policy == FixedPriority

	s.info = make([]asgInfo, n)
	s.stats = make([]TaskStats, n)
	s.nextRelease = make([]rtime.Instant, n)
	s.seq = make([]int64, n)
	s.jobs = make([]jobState, 0, 2*n)
	s.free = make([]int32, 0, 2*n)

	est := 0
	var maxSpan rtime.Duration
	for i := range cfg.Assignments {
		a := &cfg.Assignments[i]
		t := a.Task
		in := &s.info[i]
		in.task = t
		in.taskID = t.ID
		in.tie = int64(t.ID)
		in.offload = a.Offload
		in.localWCET = t.LocalWCET
		in.period = t.Period
		in.deadline = t.Deadline
		in.weight = t.EffectiveWeight()
		in.localBenefit = t.LocalBenefit
		if a.Offload {
			level := t.Levels[a.Level]
			in.srv = cfg.Server
			if level.ServerID != "" {
				in.srv = cfg.Servers[level.ServerID]
			}
			in.payload = level.PayloadBytes
			in.budget = a.Budget()
			in.setup = t.SetupAt(a.Level)
			in.post = t.PostProcessAt(a.Level)
			in.comp = t.CompensationAt(a.Level)
			in.levelBenefit = level.Benefit
			in.guaranteed = t.GuaranteedAt(a.Level)
			d1, err := dbf.SplitDeadline(in.setup, t.SecondPhaseAt(a.Level), t.Deadline, in.budget)
			if err != nil {
				// Validated in Run; unreachable.
				panic(fmt.Sprintf("sched: split deadline: %v", err))
			}
			in.d1 = d1
		}
		s.stats[i] = TaskStats{TaskID: t.ID}
		if a.Offload {
			s.stats[i].ServerID = t.Levels[a.Level].ServerID
		}
		s.res.PerTask[t.ID] = &s.stats[i]
		est += int(cfg.Horizon/t.Period) + 1
		if span := rtime.Duration(rtime.MaxInstant(rtime.Instant(t.Period), rtime.Instant(t.Deadline))); span > maxSpan {
			maxSpan = span
		}
	}
	if cfg.EventQueue == ForceWheel || (cfg.EventQueue == AutoQueue && n >= wheelThreshold) {
		// Every queued instant is within maxSpan of the simulation
		// clock (next release ≤ now + period + jitter, deadline ≤
		// release + D, wake ≤ now + budget ≤ now + D), so a ring
		// spanning 2× that keeps steady-state events out of the
		// overflow tier.
		shift, bits := wheelGeometry(maxSpan + cfg.ReleaseJitter)
		s.releases.InitWheel(shift, bits)
		s.waking.InitWheel(shift, bits)
		if s.abortPolicy {
			s.deadlines.InitWheel(shift, bits)
		}
	}
	for i := range cfg.Assignments {
		// First release at 0; horizon is validated positive.
		s.releases.Push(eventq.Entry{Key: 0, TieA: int64(i), H: int32(i)})
	}
	if !cfg.DiscardJobResults {
		s.res.Jobs = make([]JobResult, 0, est)
	}
	if tr, ok := s.sink.(*trace.Trace); ok {
		// Segment count ≈ sub-jobs (≤ 2 per job) plus preemption slack;
		// reserving here removes the steady-state reallocation that
		// dominated long-horizon recording.
		tr.Reserve(2*est+est/2, 2*est)
	} else if c, ok := s.sink.(*trace.StreamChecker); ok {
		// The synchronous first release keeps about one sub-job per
		// task in flight, the checker's peak.
		c.Reserve(n)
	}

	if s.fixedPrio {
		// Deadline-monotonic ranks, ties by task ID, written back into
		// the assignment table so dispatch never consults a map.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			x, y := &s.info[order[a]], &s.info[order[b]]
			if x.deadline != y.deadline {
				return x.deadline < y.deadline
			}
			return x.taskID < y.taskID
		})
		for r, i := range order {
			s.info[i].rank = int64(r)
		}
	}
}

// wheelGeometry picks the time-wheel shape for a system whose queued
// instants stay within span of the clock: 8192 buckets, granule grown
// until the ring covers 2× span. Geometry only affects speed — pop
// order is exact for any shape.
func wheelGeometry(span rtime.Duration) (shift, bits uint) {
	bits = 13
	if span < 1 {
		span = 1
	}
	for shift = 0; shift < 40 && int64(1)<<(shift+bits) < 2*int64(span); shift++ {
	}
	return shift, bits
}

// prioOf computes a job's dispatch key under the configured policy.
func (s *sim) prioOf(ai int32, subDeadline rtime.Instant) int64 {
	if s.fixedPrio {
		return s.info[ai].rank
	}
	return int64(subDeadline)
}

// allocJob returns a free arena slot. Callers must not hold *jobState
// pointers across this call: growing the arena moves it.
func (s *sim) allocJob() int32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	s.jobs = append(s.jobs, jobState{})
	return int32(len(s.jobs) - 1)
}

// freeJob recycles an arena slot. The job must already be out of every
// queue.
func (s *sim) freeJob(h int32) {
	s.free = append(s.free, h)
}

//rtlint:hotpath -- event-calendar dispatch loop; steady-state dispatch must not allocate
func (s *sim) run() error {
	s.init() //rtlint:allow hotalloc -- one-time table and calendar construction before the loop starts
	next := rtime.Forever
	dirty := true // next must be (re)computed before first use
	for {
		if s.admit() {
			dirty = true
		}
		if dirty {
			next = s.nextEvent()
			dirty = false
		}
		if s.ready.Len() == 0 {
			if next == rtime.Forever {
				s.res.Makespan = rtime.Duration(rtime.MaxInstant(s.now, s.phantomEnd))
				break
			}
			s.now = next
			continue
		}
		h := s.ready.Min().H
		j := &s.jobs[h]
		slice := j.remaining
		if next != rtime.Forever {
			if gap := next.Sub(s.now); gap < slice {
				slice = gap
			}
		}
		start := s.now
		s.now = s.now.Add(slice)
		j.remaining -= slice
		s.res.CPUBusy += slice
		if s.sink != nil {
			s.emitSlice(start, s.now, trace.SubID{TaskID: s.info[j.ai].taskID, Seq: j.seq, Kind: j.kind})
		}
		if j.remaining == 0 {
			s.ready.PopMin()
			if s.complete(h) {
				dirty = true
			}
		}
	}
	if s.sink != nil {
		if s.hasPend {
			s.sink.AppendSegment(s.pend) //rtlint:allow hotalloc -- one flush after the loop; sinks are pluggable components
			s.hasPend = false
		}
		return s.sink.Finish() //rtlint:allow hotalloc -- end-of-run sink finalization, outside the dispatch steady state
	}
	return nil
}

// emitSlice feeds one dispatch slice into the trace sink, coalescing
// consecutive slices of the same sub-job so sinks see maximal segments
// (memory then grows with preemptions, not scheduler events). Sub-job
// lifecycle events bypass this buffer, giving sinks the causal order
// the Sink contract documents.
func (s *sim) emitSlice(start, end rtime.Instant, id trace.SubID) {
	if s.hasPend {
		if s.pend.Sub == id && s.pend.End == start {
			s.pend.End = end
			return
		}
		s.sink.AppendSegment(s.pend) //rtlint:allow hotalloc -- sink implementations are pluggable components; the shipped sinks' emit paths carry their own alloc gates
	}
	s.pend = trace.Segment{Start: start, End: end, Sub: id}
	s.hasPend = true
}

// admit consumes every event due at or before now — releases, then
// wakes, then (under AbortAtDeadline) deadline expiries — and reports
// whether the event calendar changed.
func (s *sim) admit() bool {
	consumed := false
	for s.releases.Len() > 0 {
		e := s.releases.Min()
		at := rtime.Instant(e.Key)
		if at > s.now {
			break
		}
		s.releases.PopMin()
		s.release(int(e.H), at)
		s.advanceRelease(int(e.H))
		consumed = true
	}
	for s.waking.Len() > 0 {
		if rtime.Instant(s.waking.Min().Key) > s.now {
			break
		}
		s.resume(s.waking.PopMin().H)
		consumed = true
	}
	if s.abortPolicy {
		for s.deadlines.Len() > 0 {
			if rtime.Instant(s.deadlines.Min().Key) > s.now {
				break
			}
			s.abort(s.deadlines.PopMin().H)
			consumed = true
		}
	}
	return consumed
}

// nextEvent returns the earliest pending release, wake, or — under
// AbortAtDeadline — live deadline. O(1): every queue keeps its minimum
// at the root and holds only live entries.
func (s *sim) nextEvent() rtime.Instant {
	s.probes++
	next := rtime.Forever
	if s.releases.Len() > 0 {
		next = rtime.Instant(s.releases.Min().Key)
	}
	if s.waking.Len() > 0 {
		if w := rtime.Instant(s.waking.Min().Key); w < next {
			next = w
		}
	}
	if s.abortPolicy && s.deadlines.Len() > 0 {
		if d := rtime.Instant(s.deadlines.Min().Key); d < next {
			next = d
		}
	}
	return next
}

// advanceRelease schedules assignment i's next release. The jitter
// draw happens on every advance — even when the result lands past the
// horizon — so the RNG stream matches the reference dispatcher.
func (s *sim) advanceRelease(i int) {
	gap := s.info[i].period
	if s.cfg.ReleaseJitter > 0 {
		gap += rtime.Duration(s.cfg.RNG.Int64N(int64(s.cfg.ReleaseJitter) + 1))
	}
	s.nextRelease[i] = s.nextRelease[i].Add(gap)
	if s.nextRelease[i] < s.horizon {
		s.releases.Push(eventq.Entry{Key: int64(s.nextRelease[i]), TieA: int64(i), H: int32(i)})
	}
}

// release creates the job and its first sub-job.
func (s *sim) release(i int, at rtime.Instant) {
	in := &s.info[i]
	h := s.allocJob()
	j := &s.jobs[h]
	*j = jobState{
		ai:       int32(i),
		seq:      s.seq[i],
		release:  at,
		deadline: at.Add(in.deadline),
		phase:    phaseFirst,
	}
	s.seq[i]++
	st := &s.stats[i]
	st.Released++
	st.BaselineSum += in.localBenefit
	s.res.TotalBaseline += in.weight * in.localBenefit

	if in.offload {
		j.kind = trace.Setup
		j.wcet = in.setup
		if s.cfg.Policy == SplitEDF {
			j.subDeadline = at.Add(in.d1)
		} else { // NaiveEDF, FixedPriority
			j.subDeadline = j.deadline
		}
	} else {
		j.kind = trace.Local
		j.wcet = in.localWCET
		j.subDeadline = j.deadline
	}
	j.remaining = j.wcet
	j.subRelease = at
	j.prio = s.prioOf(j.ai, j.subDeadline)
	if s.sink != nil {
		s.sink.OpenSub(trace.SubID{TaskID: in.taskID, Seq: j.seq, Kind: j.kind}, at, j.subDeadline, j.wcet) //rtlint:allow hotalloc -- sink implementations are pluggable components with their own alloc gates
	}
	s.ready.Push(eventq.Entry{Key: j.prio, TieA: in.tie, TieB: j.seq, H: h})
	if s.abortPolicy {
		s.deadlines.Push(eventq.Entry{Key: int64(j.deadline), TieA: in.tie, TieB: j.seq, H: h})
	}
}

// complete handles a finished sub-job, reporting whether the event
// calendar changed (a wake was scheduled or a deadline entry retired).
func (s *sim) complete(h int32) bool {
	j := &s.jobs[h]
	s.recordSub(j, true)
	in := &s.info[j.ai]
	switch j.phase {
	case phaseFirst:
		if !in.offload {
			s.finishJob(h, RanLocal, in.localBenefit)
			return s.abortPolicy
		}
		// Issue the offload request to the level's component and
		// suspend.
		resp := in.srv.Respond(s.now, in.taskID, in.payload) //rtlint:allow hotalloc -- Server models are pluggable simulation components, not dispatcher code
		if resp.Latency < 0 {
			// A response cannot arrive before its request; clamp
			// misbehaving Server implementations to "instant".
			resp.Latency = 0
		}
		if resp.Arrives && resp.Latency <= in.budget {
			j.hit = true
			j.wake = s.now.Add(resp.Latency)
		} else {
			j.hit = false
			j.wake = s.now.Add(in.budget)
		}
		j.phase = phaseSuspended
		s.res.RadioBusy += j.wake.Sub(s.now)
		s.waking.Push(eventq.Entry{Key: int64(j.wake), TieA: in.tie, TieB: j.seq, H: h})
		return true
	case phaseSecond:
		if j.hit {
			s.finishJob(h, OffloadHit, in.levelBenefit)
		} else {
			s.finishJob(h, OffloadMissed, in.localBenefit)
		}
		return s.abortPolicy
	default:
		panic("sched: completing job in unexpected phase")
	}
}

// resume transitions a suspended job to its second sub-job. The caller
// has already popped it from the wake queue.
func (s *sim) resume(h int32) {
	j := &s.jobs[h]
	in := &s.info[j.ai]
	j.phase = phaseSecond
	j.subRelease = j.wake
	j.subDeadline = j.deadline
	j.prio = s.prioOf(j.ai, j.subDeadline)
	if j.hit {
		j.kind = trace.Post
		j.wcet = in.post
	} else {
		j.kind = trace.Comp
		j.wcet = in.comp
	}
	j.remaining = j.wcet
	if s.sink != nil {
		s.sink.OpenSub(trace.SubID{TaskID: in.taskID, Seq: j.seq, Kind: j.kind}, j.subRelease, j.subDeadline, j.wcet) //rtlint:allow hotalloc -- sink implementations are pluggable components with their own alloc gates
	}
	if j.wcet == 0 {
		// Zero post-processing: the job is done the moment the result
		// arrives. Record a zero-length sub-job for accounting.
		s.recordSub(j, true)
		if j.hit {
			s.finishJob(h, OffloadHit, in.levelBenefit)
		} else {
			s.finishJob(h, OffloadMissed, in.localBenefit)
		}
		return
	}
	s.ready.Push(eventq.Entry{Key: j.prio, TieA: in.tie, TieB: j.seq, H: h})
}

// abort discards a job's remaining work at its deadline. The caller
// has already popped its deadline entry.
func (s *sim) abort(h int32) {
	j := &s.jobs[h]
	in := &s.info[j.ai]
	switch j.phase {
	case phaseFirst, phaseSecond:
		s.recordSubAbandoned(j)
		s.ready.Remove(h)
	case phaseSuspended:
		s.waking.Remove(h)
		if j.wake > s.phantomEnd {
			s.phantomEnd = j.wake
		}
	}
	st := &s.stats[j.ai]
	st.Misses++
	st.Aborted++
	s.res.Misses++
	outcome := RanLocal
	if in.offload {
		outcome = OffloadMissed // never served within its budget
	}
	if !s.cfg.DiscardJobResults {
		s.res.Jobs = append(s.res.Jobs, JobResult{
			TaskID:   in.taskID,
			Seq:      j.seq,
			Release:  j.release,
			Deadline: j.deadline,
			Finish:   j.deadline,
			Outcome:  outcome,
			Missed:   true,
			Finished: false,
		})
	}
	j.phase = phaseDone
	s.freeJob(h)
}

func (s *sim) finishJob(h int32, out Outcome, benefit float64) {
	j := &s.jobs[h]
	j.phase = phaseDone
	in := &s.info[j.ai]
	st := &s.stats[j.ai]
	missed := s.now > j.deadline
	if !s.cfg.DiscardJobResults {
		s.res.Jobs = append(s.res.Jobs, JobResult{
			TaskID:   in.taskID,
			Seq:      j.seq,
			Release:  j.release,
			Deadline: j.deadline,
			Finish:   s.now,
			Outcome:  out,
			Benefit:  benefit,
			Missed:   missed,
			Finished: true,
		})
	}
	st.Finished++
	switch out {
	case RanLocal:
		st.LocalRuns++
	case OffloadHit:
		st.Hits++
	case OffloadMissed:
		st.Compensations++
		if in.guaranteed {
			st.BoundViolations++
		}
	}
	if missed {
		st.Misses++
		s.res.Misses++
	}
	st.BenefitSum += benefit
	s.res.TotalBenefit += in.weight * benefit
	lat := s.now.Sub(j.release)
	if lat > st.WorstLatency {
		st.WorstLatency = lat
	}
	if s.cfg.CollectLatencies {
		st.Latencies = append(st.Latencies, lat)
	}
	if s.abortPolicy {
		s.deadlines.Remove(h)
	}
	s.freeJob(h)
}

// recordSub closes the current sub-job in the trace sink.
func (s *sim) recordSub(j *jobState, completed bool) {
	if s.sink == nil {
		return
	}
	rec := trace.SubRecord{
		Sub:      trace.SubID{TaskID: s.info[j.ai].taskID, Seq: j.seq, Kind: j.kind},
		Release:  j.subRelease,
		Deadline: j.subDeadline,
		WCET:     j.wcet,
	}
	if completed {
		rec.Completed = true
		rec.Completion = s.now
	}
	s.sink.CloseSub(rec) //rtlint:allow hotalloc -- sink implementations are pluggable components with their own alloc gates
}

// recordSubAbandoned closes an abandoned sub-job in the trace sink.
func (s *sim) recordSubAbandoned(j *jobState) {
	if s.sink == nil {
		return
	}
	s.sink.CloseSub(trace.SubRecord{ //rtlint:allow hotalloc -- sink implementations are pluggable components with their own alloc gates
		Sub:         trace.SubID{TaskID: s.info[j.ai].taskID, Seq: j.seq, Kind: j.kind},
		Release:     j.subRelease,
		Deadline:    j.subDeadline,
		WCET:        j.wcet,
		Abandoned:   true,
		AbandonTime: s.now,
	})
}
