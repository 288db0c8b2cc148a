// Package trace records and validates execution traces of the EDF
// scheduler simulator.
//
// The simulator (package sched) emits a Trace: the sequence of
// processor-time segments plus one record per sub-job with its
// release, deadline and completion. StreamChecker verifies a trace
// against the scheduling invariants — single-processor exclusivity,
// EDF priority order, work conservation, and execution budget
// accounting — in one pass, live as the simulator emits it or over a
// materialized Trace (Validate), giving the test suite an oracle that
// is independent of the simulator's own bookkeeping.
package trace

import (
	"fmt"
	"sort"

	"rtoffload/internal/rtime"
)

// Kind labels what a sub-job executes.
type Kind int

const (
	// Local is the single sub-job of a locally executed task (Ci).
	Local Kind = iota
	// Setup is the offload-preparation sub-job (Ci,1).
	Setup
	// Post processes a result that returned within the budget (Ci,3).
	Post
	// Comp is the local compensation after a timer expiry (Ci,2).
	Comp
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Local:
		return "local"
	case Setup:
		return "setup"
	case Post:
		return "post"
	case Comp:
		return "comp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// SubID identifies one sub-job: task, job sequence number, and phase.
type SubID struct {
	TaskID int
	Seq    int64
	Kind   Kind
}

// String implements fmt.Stringer.
func (id SubID) String() string {
	return fmt.Sprintf("τ%d#%d/%s", id.TaskID, id.Seq, id.Kind)
}

// Segment is a half-open interval [Start, End) during which the
// processor executed one sub-job.
type Segment struct {
	Start, End rtime.Instant
	Sub        SubID
}

// SubRecord describes one sub-job's lifecycle.
type SubRecord struct {
	Sub      SubID
	Release  rtime.Instant // when the sub-job became ready
	Deadline rtime.Instant // its absolute EDF deadline
	WCET     rtime.Duration
	// Completed is false for sub-jobs still unfinished at trace end.
	Completed  bool
	Completion rtime.Instant
	// Abandoned marks sub-jobs whose remaining work was discarded (the
	// AbortAtDeadline overrun policy) at AbandonTime; they are neither
	// completed nor ready after that instant.
	Abandoned   bool
	AbandonTime rtime.Instant
}

// end returns the instant after which the sub-job no longer demands
// the processor: completion, abandonment, or never.
func (r *SubRecord) end() rtime.Instant {
	switch {
	case r.Completed:
		return r.Completion
	case r.Abandoned:
		return r.AbandonTime
	default:
		return rtime.Forever
	}
}

// Trace is a recorded schedule.
//
// Segments are appended in execution order via Append, which
// guarantees the coalescing invariant: no two consecutive entries of
// Segments describe the same sub-job with touching endpoints
// (s[i].End == s[i+1].Start ∧ s[i].Sub == s[i+1].Sub never holds).
// A recorder may therefore slice one continuous execution of a
// sub-job at arbitrary internal instants — event-calendar boundaries,
// clock quanta — without changing the recorded trace: Append merges
// the pieces back. Memory then grows with the number of *preemptions
// and resumptions*, not with the number of scheduler events.
type Trace struct {
	Segments []Segment
	Subs     []SubRecord
}

// Sink consumes a trace as the recorder produces it, so long horizons
// can stream to disk or through one-pass checkers instead of growing
// an in-memory Trace. The recorder's event stream is causal:
//
//   - OpenSub announces a sub-job the moment it becomes ready, before
//     any of its segments, and opens arrive in non-decreasing release
//     order (the simulator opens at the current instant; Replay sorts
//     by release) — StreamChecker rejects an open released before its
//     predecessor;
//   - AppendSegment delivers coalesced segments in execution order
//     (non-decreasing Start); every OpenSub whose release precedes a
//     segment's End, and every CloseSub whose end instant is at or
//     before a segment's End, arrives before that segment (coalescing
//     may delay a segment past the sub-job lifecycle events inside
//     its span — never the other way around);
//   - CloseSub delivers the sub-job's final record (completed or
//     abandoned) exactly once per opened sub-job;
//   - Finish marks the end of the trace and reports the sink's
//     deferred error, if any.
//
// *Trace is the in-memory Sink, BinarySink the zero-allocation on-disk
// one, and StreamChecker the one-pass invariant verifier.
type Sink interface {
	OpenSub(id SubID, release, deadline rtime.Instant, wcet rtime.Duration)
	AppendSegment(s Segment)
	CloseSub(r SubRecord)
	Finish() error
}

// Reserve pre-sizes the backing arrays for about segments Segments and
// subs SubRecords, so a recorder that can estimate its output (jobs ×
// expected sub-jobs, plus preemption slack) avoids the steady-state
// reallocation that dominated long-horizon recording. It never shrinks
// and is purely a capacity hint.
func (tr *Trace) Reserve(segments, subs int) {
	if segments > cap(tr.Segments)-len(tr.Segments) {
		grown := make([]Segment, len(tr.Segments), len(tr.Segments)+segments)
		copy(grown, tr.Segments)
		tr.Segments = grown
	}
	if subs > cap(tr.Subs)-len(tr.Subs) {
		grown := make([]SubRecord, len(tr.Subs), len(tr.Subs)+subs)
		copy(grown, tr.Subs)
		tr.Subs = grown
	}
}

// OpenSub implements Sink. The in-memory trace records sub-jobs at
// close time only (their records carry the full lifecycle), so opens
// are ignored.
func (tr *Trace) OpenSub(SubID, rtime.Instant, rtime.Instant, rtime.Duration) {}

// AppendSegment implements Sink via Append.
func (tr *Trace) AppendSegment(s Segment) { tr.Append(s) }

// CloseSub implements Sink.
func (tr *Trace) CloseSub(r SubRecord) {
	tr.Subs = append(tr.Subs, r)
}

// Finish implements Sink.
func (tr *Trace) Finish() error { return nil }

// Append records one execution interval, coalescing it with the
// previous segment when both describe the same sub-job and touch
// (previous End == new Start). Callers must append segments in
// execution order; empty intervals are ignored.
func (tr *Trace) Append(s Segment) {
	if s.End <= s.Start {
		return
	}
	if n := len(tr.Segments); n > 0 {
		last := &tr.Segments[n-1]
		if last.Sub == s.Sub && last.End == s.Start {
			last.End = s.End
			return
		}
	}
	tr.Segments = append(tr.Segments, s)
}

// Validate verifies the trace against every scheduling invariant in
// one pass: it replays the trace into a StreamChecker (see Replay) and
// returns the first violation.
func (tr *Trace) Validate() error {
	return tr.Replay(NewStreamChecker())
}

// TotalBusy sums all segment lengths.
func (tr *Trace) TotalBusy() rtime.Duration {
	var d rtime.Duration
	for _, s := range tr.Segments {
		d += s.End.Sub(s.Start)
	}
	return d
}

func (tr *Trace) sortedSegments() []Segment {
	segs := append([]Segment(nil), tr.Segments...)
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Start != segs[j].Start {
			return segs[i].Start < segs[j].Start
		}
		return segs[i].End < segs[j].End
	})
	return segs
}
