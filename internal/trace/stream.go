// Streaming one-pass trace verification. StreamChecker is the
// package's only trace verifier: it consumes the Sink event stream —
// live from the simulator, replayed from a materialized Trace
// (Validate), or read back from disk (ReadBinary) — and checks the
// scheduling invariants as a single forward pass whose state is
// bounded by the number of *in-flight* sub-jobs, not by the horizon:
//
//   - exclusivity: segments arrive in execution order, so overlap is a
//     one-instant comparison against the previous segment's end;
//   - well-formedness and budgets: per-sub execution accumulates in a
//     live table; a sub-job's record retires (and is finally checked)
//     once a later segment proves no earlier event can reference it;
//   - EDF order and work conservation: the live table at a segment's
//     arrival is exactly the set of sub-jobs released but not retired
//     around it — the Sink contract (see Sink) guarantees every open
//     and close that could overlap a segment precedes it.
//
// Its test oracle is the original materialized checker family
// (reference_test.go, RefValidate), which rescans the whole trace per
// invariant; stream_test.go and engine_diff_test.go pin that both
// accept and reject exactly the same traces.
package trace

import (
	"fmt"
	"sort"

	"rtoffload/internal/rtime"
)

// streamSub is one live (released, not yet retired) sub-job.
type streamSub struct {
	id       SubID
	release  rtime.Instant
	deadline rtime.Instant
	wcet     rtime.Duration

	exec    rtime.Duration // execution accumulated so far
	started bool
	lastEnd rtime.Instant // end of its latest segment

	closed    bool
	completed bool
	abandoned bool
	endAt     rtime.Instant // completion or abandon instant when closed
}

// end mirrors SubRecord.end for the live table.
func (k *streamSub) end() rtime.Instant {
	if k.closed && (k.completed || k.abandoned) {
		return k.endAt
	}
	return rtime.Forever
}

// StreamChecker is a Sink that verifies the scheduling invariants in
// one pass. Feed it a live simulation (sched.Config.TraceSink) or a
// materialized trace (Trace.Replay); Finish returns the first
// violation. Memory is O(max in-flight sub-jobs).
type StreamChecker struct {
	// live is scanned in deterministic slice order; index maps a SubID
	// to its slot (lookup only — never ranged).
	live  []streamSub
	index map[SubID]int32

	prevEnd      rtime.Instant
	haveSeg      bool
	firstRelease rtime.Instant

	segments int64
	subs     int64

	err error
}

// NewStreamChecker returns a checker ready to consume a trace stream.
func NewStreamChecker() *StreamChecker {
	return &StreamChecker{index: make(map[SubID]int32), firstRelease: rtime.Forever}
}

// Err returns the first violation found so far.
func (c *StreamChecker) Err() error { return c.err }

// Counts reports how many segments and sub-job records have been
// consumed, for cross-checking against sink or reader totals.
func (c *StreamChecker) Counts() (segments, subs int64) { return c.segments, c.subs }

func (c *StreamChecker) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("trace: "+format, args...)
	}
}

// OpenSub implements Sink.
func (c *StreamChecker) OpenSub(id SubID, release, deadline rtime.Instant, wcet rtime.Duration) {
	if c.err != nil {
		return
	}
	if _, dup := c.index[id]; dup {
		c.fail("duplicate sub-job %v opened", id)
		return
	}
	c.index[id] = int32(len(c.live))
	c.live = append(c.live, streamSub{id: id, release: release, deadline: deadline, wcet: wcet})
	if release < c.firstRelease {
		c.firstRelease = release
	}
}

// AppendSegment implements Sink.
func (c *StreamChecker) AppendSegment(s Segment) {
	if c.err != nil {
		return
	}
	c.segments++
	if s.End <= s.Start {
		c.fail("segment empty or inverted: [%v, %v)", s.Start, s.End)
		return
	}
	if c.haveSeg && s.Start < c.prevEnd {
		c.fail("segments overlap: %v starts at %v before previous end %v", s.Sub, s.Start, c.prevEnd)
		return
	}

	// Work conservation: no sub-job may be ready inside the idle gap
	// before this segment (from the previous segment's end, or from
	// the earliest release for the leading gap).
	gapFrom := c.firstRelease
	if c.haveSeg {
		gapFrom = c.prevEnd
	}
	if gapFrom < s.Start {
		for i := range c.live {
			k := &c.live[i]
			from := rtime.MaxInstant(gapFrom, k.release)
			to := rtime.MinInstant(s.Start, k.end())
			if from < to {
				c.fail("processor idle in [%v,%v) while %v was ready", from, to, k.id)
				return
			}
		}
	}

	ri, ok := c.index[s.Sub]
	if !ok {
		c.fail("segment references unknown sub-job %v", s.Sub)
		return
	}
	r := &c.live[ri]
	if s.Start < r.release {
		c.fail("%v executes at %v before release %v", s.Sub, s.Start, r.release)
		return
	}
	if end := r.end(); s.End > end {
		c.fail("%v executes past its end %v", s.Sub, end)
		return
	}

	// EDF: no live sub-job with a strictly earlier deadline may be
	// ready anywhere inside this segment. Closes with an end at or
	// before s.End have already arrived (Sink contract), so an
	// unclosed sub-job's Forever end never understates the overlap.
	for i := range c.live {
		k := &c.live[i]
		if k.id == s.Sub || k.deadline >= r.deadline {
			continue
		}
		from := rtime.MaxInstant(s.Start, k.release)
		to := rtime.MinInstant(s.End, k.end())
		if from < to {
			c.fail("EDF violation: %v (deadline %v) ran during [%v,%v) while %v (deadline %v) was ready",
				s.Sub, r.deadline, from, to, k.id, k.deadline)
			return
		}
	}

	r.exec += s.End.Sub(s.Start)
	r.started = true
	r.lastEnd = s.End
	c.haveSeg = true
	c.prevEnd = s.End

	c.retire(s.Start)
}

// retire finalizes and drops closed sub-jobs whose end precedes the
// newest segment's start: no later event can reference them, so their
// budget accounting is complete and their slot can be reclaimed.
func (c *StreamChecker) retire(before rtime.Instant) {
	for i := 0; i < len(c.live); {
		k := &c.live[i]
		if !k.closed || k.end() > before {
			i++
			continue
		}
		c.finalize(k)
		last := len(c.live) - 1
		delete(c.index, k.id)
		if i != last {
			c.live[i] = c.live[last]
			c.index[c.live[i].id] = int32(i)
		}
		c.live = c.live[:last]
	}
}

// finalize runs the end-of-life budget checks on one sub-job.
func (c *StreamChecker) finalize(k *streamSub) {
	if c.err != nil {
		return
	}
	if k.completed && k.exec != k.wcet {
		c.fail("%v executed %v, want WCET %v", k.id, k.exec, k.wcet)
		return
	}
	if !k.completed && k.exec >= k.wcet && k.wcet > 0 {
		c.fail("%v executed full WCET %v but is not completed", k.id, k.wcet)
	}
}

// CloseSub implements Sink.
func (c *StreamChecker) CloseSub(r SubRecord) {
	if c.err != nil {
		return
	}
	c.subs++
	ri, ok := c.index[r.Sub]
	if !ok {
		c.fail("record closes unopened sub-job %v", r.Sub)
		return
	}
	k := &c.live[ri]
	if k.closed {
		c.fail("sub-job %v closed twice", r.Sub)
		return
	}
	if r.Release != k.release || r.Deadline != k.deadline || r.WCET != k.wcet {
		c.fail("%v closed with (release %v, deadline %v, WCET %v), opened with (%v, %v, %v)",
			r.Sub, r.Release, r.Deadline, r.WCET, k.release, k.deadline, k.wcet)
		return
	}
	if r.Completed && r.Abandoned {
		c.fail("%v both completed and abandoned", r.Sub)
		return
	}
	k.closed = true
	k.completed = r.Completed
	k.abandoned = r.Abandoned
	k.endAt = r.end()
	if k.started && k.lastEnd > k.end() {
		c.fail("%v executes past its end %v", r.Sub, k.end())
	}
}

// Finish implements Sink: it runs the deferred end-of-trace checks
// (the no-segment work-conservation gap and the budget accounting of
// every sub-job still live) and returns the first violation.
func (c *StreamChecker) Finish() error {
	if c.err != nil {
		return c.err
	}
	if !c.haveSeg {
		// No segment ever ran: the processor idled from the first
		// release onward, so any sub-job with a nonzero lifetime is a
		// work-conservation violation.
		for i := range c.live {
			k := &c.live[i]
			if k.release < k.end() {
				c.fail("processor idle in [%v,%v) while %v was ready", k.release, k.end(), k.id)
				return c.err
			}
		}
	}
	for i := range c.live {
		c.finalize(&c.live[i])
		if c.err != nil {
			return c.err
		}
	}
	return c.err
}

// Replay feeds a materialized trace through sink in the causal stream
// order the Sink contract requires — opens sorted by release, closes
// by end instant, segments by start, with every lifecycle event that
// could overlap a segment emitted before it — and returns
// sink.Finish(). Before a segment ending at E it emits every open with
// release ≤ E and every close with end ≤ E, opens first on ties, so a
// sub-job is always opened before it is closed: a zero-WCET sub-job
// released and completed exactly at E (a zero-cost post-processing
// phase whose result arrives the instant setup completes) opens and
// closes before that segment. Replaying into a StreamChecker verifies
// a Trace one-pass (Validate); replaying into a BinarySink serializes
// it.
func (tr *Trace) Replay(sink Sink) error {
	opens := make([]int, len(tr.Subs))
	for i := range opens {
		opens[i] = i
	}
	sort.SliceStable(opens, func(a, b int) bool {
		return tr.Subs[opens[a]].Release < tr.Subs[opens[b]].Release
	})
	closes := make([]int, len(tr.Subs))
	for i := range closes {
		closes[i] = i
	}
	// A close never precedes its own open: clamp the sort instant to
	// the release (only malformed records have end < release, and the
	// checker rejects the mismatch cases anyway).
	closeAt := func(i int) rtime.Instant {
		r := &tr.Subs[i]
		return rtime.MaxInstant(r.end(), r.Release)
	}
	sort.SliceStable(closes, func(a, b int) bool {
		return closeAt(closes[a]) < closeAt(closes[b])
	})
	segs := tr.sortedSegments()

	oi, ci := 0, 0
	// emit delivers opens with release ≤ lim and closes with end ≤ lim,
	// merged in time order (opens first on ties). The open bound must
	// be inclusive: every close due at lim has release ≤ lim (closeAt
	// clamps to the release), so its open is due too.
	emit := func(lim rtime.Instant) {
		for {
			openDue := oi < len(opens) && tr.Subs[opens[oi]].Release <= lim
			closeDue := ci < len(closes) && closeAt(closes[ci]) <= lim
			switch {
			case openDue && (!closeDue || tr.Subs[opens[oi]].Release <= closeAt(closes[ci])):
				r := &tr.Subs[opens[oi]]
				sink.OpenSub(r.Sub, r.Release, r.Deadline, r.WCET)
				oi++
			case closeDue:
				sink.CloseSub(tr.Subs[closes[ci]])
				ci++
			default:
				return
			}
		}
	}
	for _, s := range segs {
		emit(s.End)
		sink.AppendSegment(s)
	}
	emit(rtime.Forever)
	return sink.Finish()
}
