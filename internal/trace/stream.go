// Streaming one-pass trace verification. StreamChecker is the
// package's only trace verifier: it consumes the Sink event stream —
// live from the simulator or replayed from a materialized Trace
// (Validate) — and checks the
// scheduling invariants as a single forward pass whose state is
// bounded by the number of *in-flight* sub-jobs, not by the horizon,
// at O(log in-flight) per event:
//
//   - exclusivity: segments arrive in execution order, so overlap is a
//     one-instant comparison against the previous segment's end;
//   - well-formedness and budgets: per-sub execution accumulates in a
//     slot arena found through an open-addressing table; a sub-job's
//     slot retires (and its budget is finally checked) once a segment
//     starts at or after its end, popped from an end-ordered heap;
//   - EDF order and work conservation: opens arrive in release order
//     (see Sink), so a FIFO of pending sub-jobs feeds a deadline-ordered
//     heap of ready ones as segments advance time. A segment [S,E)
//     violates EDF iff the ready minimum has an earlier deadline than
//     the running sub-job, and an idle gap violates work conservation
//     iff anything is ready inside it.
//
// Heap entries are never removed from the middle: an entry names a
// slot and the slot's generation, and a retired slot bumps its
// generation, so stale entries are recognized and dropped when they
// surface at the top.
//
// Its test oracle is the original materialized checker family
// (reference_test.go, RefValidate), which rescans the whole trace per
// invariant; stream_test.go and engine_diff_test.go pin that both
// accept and reject exactly the same traces.
package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rtoffload/internal/rtime"
)

// streamSub flags.
const (
	subClosed    uint8 = 1 << iota // its CloseSub arrived
	subCompleted                   // closed as completed
)

// streamSub is one arena slot: a live (opened, not yet retired)
// sub-job, or a free slot awaiting reuse.
type streamSub struct {
	id       SubID
	release  rtime.Instant
	deadline rtime.Instant
	wcet     rtime.Duration

	exec    rtime.Duration // execution accumulated so far; > 0 once started
	lastEnd rtime.Instant  // end of its latest segment
	// end is the instant after which the sub-job no longer demands the
	// processor (SubRecord.end once closed, Forever until then).
	end rtime.Instant

	gen   uint32 // bumped on retirement; stale heap entries mismatch
	flags uint8
}

// demands reports whether the sub-job ever demands the processor: one
// closed with end ≤ release has an empty lifetime and is never ready.
func (k *streamSub) demands() bool { return k.release < k.end }

// slotRef names one generation of an arena slot, keyed by an instant:
// a release in the pending FIFO, a deadline in the ready heap, an end
// in the closing heap.
type slotRef struct {
	at   rtime.Instant
	slot int32
	gen  uint32
}

// refHeap is a 4-ary min-heap of slotRefs ordered by at: half the
// depth of a binary heap, with each node's children sharing a cache
// line, which matters because every sub-job's entry is popped once.
type refHeap []slotRef

func (h *refHeap) push(e slotRef) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if q[p].at <= e.at {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

func (h *refHeap) pop() slotRef {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		c := first
		for j := first + 1; j < first+4 && j < n; j++ {
			if q[j].at < q[c].at {
				c = j
			}
		}
		if last.at <= q[c].at {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// minTableSize is the slot table's initial (power-of-two) size.
const minTableSize = 16

// subHash mixes a SubID's fields into a table hash (a multiplicative
// combination finished with the splitmix64 avalanche).
func subHash(id SubID) uint64 {
	h := uint64(id.TaskID)*0x9e3779b97f4a7c15 ^ uint64(id.Seq)*0xbf58476d1ce4e5b9 ^ uint64(id.Kind)
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// StreamChecker is a Sink that verifies the scheduling invariants in
// one pass. Feed it a live simulation (sched.Config.TraceSink) or a
// materialized trace (Trace.Replay); Finish returns the first
// violation. Memory is O(max in-flight sub-jobs); every OpenSub,
// AppendSegment and CloseSub costs O(log in-flight) amortized.
type StreamChecker struct {
	arena []streamSub
	free  []int32 // retired slots, reused before the arena grows
	live  int     // slots in use
	// table maps a live SubID to its slot by linear probing: an entry
	// is slot+1, 0 is empty. Its length is a power of two at least
	// twice live. Lookups only — ranged solely by Finish, whose table
	// order is a deterministic function of the event stream.
	table []int32

	pending     []slotRef // opened, not yet promoted; FIFO by release from head
	head        int
	ready       refHeap       // promoted sub-jobs by deadline
	closing     refHeap       // closed sub-jobs with a finite end, by end
	lastRelease rtime.Instant // latest open's release; opens never go back

	prevEnd      rtime.Instant
	haveSeg      bool
	firstRelease rtime.Instant

	segments int64
	subs     int64

	err error
}

// NewStreamChecker returns a checker ready to consume a trace stream.
func NewStreamChecker() *StreamChecker {
	return &StreamChecker{
		table:        make([]int32, minTableSize),
		lastRelease:  math.MinInt64,
		firstRelease: rtime.Forever,
	}
}

// Reserve pre-sizes the checker for about n concurrently live
// sub-jobs, so a recorder that knows its task count (a synchronous
// release keeps about one sub-job per task live) avoids the doubling
// growth of the arena, queues and table. It never shrinks and is
// purely a capacity hint.
func (c *StreamChecker) Reserve(n int) {
	if n <= 0 {
		return
	}
	c.arena = slices.Grow(c.arena, n)
	c.pending = slices.Grow(c.pending, n)
	c.ready = slices.Grow(c.ready, n)
	size := len(c.table)
	for size < 2*(c.live+n) {
		size *= 2
	}
	c.rehash(size)
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

// find returns the table position holding id, or the empty position
// where it would be inserted.
func (c *StreamChecker) find(id SubID) (pos int, found bool) {
	mask := len(c.table) - 1
	for i := int(subHash(id)) & mask; ; i = (i + 1) & mask {
		v := c.table[i]
		if v == 0 {
			return i, false
		}
		if c.arena[v-1].id == id {
			return i, true
		}
	}
}

// slotOf returns the arena slot of the live sub-job id.
func (c *StreamChecker) slotOf(id SubID) (int32, bool) {
	pos, ok := c.find(id)
	return c.table[pos] - 1, ok
}

// rehash rebuilds the table at size (a power of two) if that grows it.
func (c *StreamChecker) rehash(size int) {
	if size <= len(c.table) {
		return
	}
	old := c.table
	c.table = make([]int32, size)
	for _, v := range old {
		if v != 0 {
			pos, _ := c.find(c.arena[v-1].id)
			c.table[pos] = v
		}
	}
}

// unlink deletes slot's table entry by backward shift: each later
// entry of the probe run moves into the hole unless its home position
// lies cyclically in (hole, its position].
func (c *StreamChecker) unlink(slot int32) {
	mask := len(c.table) - 1
	i := int(subHash(c.arena[slot].id)) & mask
	for c.table[i] != slot+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		home := int(subHash(c.arena[c.table[j]-1].id)) & mask
		if (j-home)&mask >= (j-i)&mask {
			c.table[i] = c.table[j]
			i = j
		}
	}
	c.table[i] = 0
}

// OpenSub implements Sink.
//
//rtlint:hotpath
func (c *StreamChecker) OpenSub(id SubID, release, deadline rtime.Instant, wcet rtime.Duration) {
	if c.err != nil {
		return
	}
	if release < c.lastRelease {
		c.fail("sub-job %v opened with release %v after a release at %v", id, release, c.lastRelease) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	if 2*(c.live+1) > len(c.table) {
		c.rehash(2 * len(c.table)) //rtlint:allow hotalloc -- slot-table growth; amortized out by doubling
	}
	pos, dup := c.find(id)
	if dup {
		c.fail("duplicate sub-job %v opened", id) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	var slot int32
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		slot = int32(len(c.arena))
		c.arena = append(c.arena, streamSub{})
	}
	k := &c.arena[slot]
	k.id, k.release, k.deadline, k.wcet = id, release, deadline, wcet
	k.exec, k.lastEnd, k.end, k.flags = 0, 0, rtime.Forever, 0
	c.table[pos] = slot + 1
	c.live++
	c.pending = append(c.pending, slotRef{at: release, slot: slot, gen: k.gen})
	c.lastRelease = release
	if release < c.firstRelease {
		c.firstRelease = release
	}
}

// AppendSegment implements Sink.
//
//rtlint:hotpath
func (c *StreamChecker) AppendSegment(s Segment) {
	if c.err != nil {
		return
	}
	c.segments++
	if s.End <= s.Start {
		c.fail("segment empty or inverted: [%v, %v)", s.Start, s.End) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	if c.haveSeg && s.Start < c.prevEnd {
		c.fail("segments overlap: %v starts at %v before previous end %v", s.Sub, s.Start, c.prevEnd) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}

	// Work conservation: no sub-job may be ready inside the idle gap
	// before this segment (from the previous segment's end, or from
	// the earliest release for the leading gap). After retiring what
	// ended by the gap's start and promoting what was released before
	// its end, the ready set is exactly the sub-jobs ready inside it.
	gapFrom := c.firstRelease
	if c.haveSeg {
		gapFrom = c.prevEnd
	}
	if gapFrom < s.Start {
		c.retire(gapFrom)
		c.promote(s.Start)
		if k := c.readyMin(); k != nil {
			c.fail("processor idle in [%v,%v) while %v was ready", //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
				rtime.MaxInstant(gapFrom, k.release), rtime.MinInstant(s.Start, k.end), k.id)
			return
		}
	}

	// The ready set now becomes every sub-job ready somewhere inside
	// [Start, End): released before End (all such opens have arrived,
	// Sink contract) and not ended by Start. Retiring first only turns
	// a segment of an already-ended sub-job from "past its end" into
	// "unknown": both reject.
	c.retire(s.Start)
	c.promote(s.End)
	ri, ok := c.slotOf(s.Sub)
	if !ok {
		c.fail("segment references unknown sub-job %v", s.Sub) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	r := &c.arena[ri]
	if s.Start < r.release {
		c.fail("%v executes at %v before release %v", s.Sub, s.Start, r.release) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	if s.End > r.end {
		c.fail("%v executes past its end %v", s.Sub, r.end) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}

	// EDF: no sub-job with a strictly earlier deadline may be ready
	// anywhere inside this segment. r itself is ready, so the ready
	// minimum is another sub-job exactly when its deadline is earlier.
	// Closes with an end at or before End have already arrived (Sink
	// contract), so an unclosed sub-job's Forever end never overstates
	// the overlap.
	if k := c.readyMin(); k != nil && k.deadline < r.deadline {
		c.fail("EDF violation: %v (deadline %v) ran during [%v,%v) while %v (deadline %v) was ready", //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
			s.Sub, r.deadline, rtime.MaxInstant(s.Start, k.release), rtime.MinInstant(s.End, k.end), k.id, k.deadline)
		return
	}

	r.exec += s.End.Sub(s.Start)
	r.lastEnd = s.End
	c.haveSeg = true
	c.prevEnd = s.End
}

// promote moves the pending sub-jobs released before t into the ready
// heap, skipping retired ones and ones closed with an empty lifetime.
func (c *StreamChecker) promote(t rtime.Instant) {
	for c.head < len(c.pending) && c.pending[c.head].at < t {
		e := c.pending[c.head]
		c.head++
		if k := &c.arena[e.slot]; k.gen == e.gen && k.demands() {
			c.ready.push(slotRef{at: k.deadline, slot: e.slot, gen: e.gen})
		}
	}
	// Reclaim the consumed prefix: reset when drained, else slide the
	// tail down once the prefix outweighs it (amortized O(1) a pop).
	if c.head == len(c.pending) {
		c.pending, c.head = c.pending[:0], 0
	} else if 2*c.head >= len(c.pending) {
		n := copy(c.pending, c.pending[c.head:])
		c.pending, c.head = c.pending[:n], 0
	}
}

// readyMin returns the earliest-deadline ready sub-job, or nil, after
// dropping the stale entries at the top of the ready heap.
func (c *StreamChecker) readyMin() *streamSub {
	for len(c.ready) > 0 {
		e := c.ready[0]
		if k := &c.arena[e.slot]; k.gen == e.gen && k.demands() {
			return k
		}
		c.ready.pop()
	}
	return nil
}

// retire finalizes and frees the closed sub-jobs that ended at or
// before t: a segment starting at t proves no later event can
// reference them, so their budget accounting is complete and their
// slot can be reclaimed.
func (c *StreamChecker) retire(t rtime.Instant) {
	for len(c.closing) > 0 && c.closing[0].at <= t {
		slot := c.closing.pop().slot
		k := &c.arena[slot]
		c.finalize(k)
		c.unlink(slot)
		k.gen++
		c.free = append(c.free, slot)
		c.live--
	}
}

// finalize runs the end-of-life budget checks on one sub-job.
func (c *StreamChecker) finalize(k *streamSub) {
	if c.err != nil {
		return
	}
	completed := k.flags&subCompleted != 0
	if completed && k.exec != k.wcet {
		c.fail("%v executed %v, want WCET %v", k.id, k.exec, k.wcet) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	if !completed && k.exec >= k.wcet && k.wcet > 0 {
		c.fail("%v executed full WCET %v but is not completed", k.id, k.wcet) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
	}
}

// CloseSub implements Sink.
//
//rtlint:hotpath
func (c *StreamChecker) CloseSub(r SubRecord) {
	if c.err != nil {
		return
	}
	c.subs++
	slot, ok := c.slotOf(r.Sub)
	if !ok {
		c.fail("record closes unopened sub-job %v", r.Sub) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	k := &c.arena[slot]
	if k.flags&subClosed != 0 {
		c.fail("sub-job %v closed twice", r.Sub) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	if r.Release != k.release || r.Deadline != k.deadline || r.WCET != k.wcet {
		c.fail("%v closed with (release %v, deadline %v, WCET %v), opened with (%v, %v, %v)", //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
			r.Sub, r.Release, r.Deadline, r.WCET, k.release, k.deadline, k.wcet)
		return
	}
	if r.Completed && r.Abandoned {
		c.fail("%v both completed and abandoned", r.Sub) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	k.flags |= subClosed
	if r.Completed {
		k.flags |= subCompleted
	}
	k.end = r.end()
	if k.exec > 0 && k.lastEnd > k.end {
		c.fail("%v executes past its end %v", r.Sub, k.end) //rtlint:allow hotalloc -- the first violation ends checking; its error is built once
		return
	}
	if k.end != rtime.Forever {
		c.closing.push(slotRef{at: k.end, slot: slot, gen: k.gen})
	}
}

// Finish implements Sink: it runs the deferred end-of-trace checks
// (the no-segment work-conservation gap and the budget accounting of
// every sub-job still live) and returns the first violation.
func (c *StreamChecker) Finish() error {
	if c.err != nil {
		return c.err
	}
	for _, v := range c.table {
		if v == 0 {
			continue
		}
		k := &c.arena[v-1]
		if !c.haveSeg && k.demands() {
			// No segment ever ran: the processor idled from the first
			// release onward, so any sub-job with a nonzero lifetime
			// is a work-conservation violation.
			c.fail("processor idle in [%v,%v) while %v was ready", k.release, k.end, k.id)
			return c.err
		}
		c.finalize(k)
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
// a Trace one-pass (Validate).
//
//rtlint:allow reach -- reference: replays a materialized trace, the engine reference used across packages' tests
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
