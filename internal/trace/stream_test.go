package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"rtoffload/internal/rtime"
)

// abandonedTrace is a valid schedule where τ1 is abandoned mid-flight
// (AbortAtDeadline policy) and τ2 takes over immediately.
func abandonedTrace() *Trace {
	s1 := SubID{TaskID: 1, Seq: 0, Kind: Local}
	s2 := SubID{TaskID: 2, Seq: 0, Kind: Local}
	return &Trace{
		Segments: []Segment{
			{Start: ms(0), End: ms(2), Sub: s1},
			{Start: ms(2), End: ms(5), Sub: s2},
		},
		Subs: []SubRecord{
			{Sub: s1, Release: ms(0), Deadline: ms(2), WCET: msd(5), Abandoned: true, AbandonTime: ms(2)},
			{Sub: s2, Release: ms(1), Deadline: ms(20), WCET: msd(3), Completed: true, Completion: ms(5)},
		},
	}
}

// zeroWCETTrace has a zero-budget sub-job that opens and closes at its
// release with no segments — the degenerate lifecycle the engine emits
// for zero-cost phases.
func zeroWCETTrace() *Trace {
	tr := validTrace()
	z := SubID{TaskID: 3, Seq: 0, Kind: Post}
	tr.Subs = append(tr.Subs, SubRecord{
		Sub: z, Release: ms(3), Deadline: ms(30), WCET: 0, Completed: true, Completion: ms(3),
	})
	return tr
}

// zeroWCETAtSegmentEndTrace is the engine shape that once broke
// Replay: the offload result arrives the instant setup completes, so a
// zero-cost post-processing sub-job is released and completed at the
// end of the setup segment. Replay must open it before closing it.
func zeroWCETAtSegmentEndTrace() *Trace {
	setup := SubID{TaskID: 1, Kind: Setup}
	post := SubID{TaskID: 1, Kind: Post}
	return &Trace{
		Segments: []Segment{{Start: ms(0), End: ms(2), Sub: setup}},
		Subs: []SubRecord{
			{Sub: setup, Release: ms(0), Deadline: ms(4), WCET: msd(2), Completed: true, Completion: ms(2)},
			{Sub: post, Release: ms(2), Deadline: ms(10), WCET: 0, Completed: true, Completion: ms(2)},
		},
	}
}

// reopenAfterRetireTrace records one SubID twice: zeroWCETTrace's
// zero-budget τ3 sub-job retires when the segment at 4 ms starts past
// its end, and the same ID opens again at 8 ms. The checker forgets a
// retired ID, so the second lifecycle is accepted like any new one.
func reopenAfterRetireTrace() *Trace {
	tr := zeroWCETTrace()
	z := tr.Subs[len(tr.Subs)-1]
	z.Release, z.Completion = ms(8), ms(8)
	tr.Subs = append(tr.Subs, z)
	return tr
}

// suspensionTrace mirrors TestCheckEDFOrderSuspension: a late-released
// compensation sub-job whose preceding idle-priority run is legal.
func suspensionTrace() *Trace {
	setup := SubID{TaskID: 1, Kind: Setup}
	comp := SubID{TaskID: 1, Kind: Comp}
	other := SubID{TaskID: 2, Kind: Local}
	return &Trace{
		Segments: []Segment{
			{Start: ms(0), End: ms(2), Sub: setup},
			{Start: ms(2), End: ms(8), Sub: other},
			{Start: ms(8), End: ms(11), Sub: comp},
		},
		Subs: []SubRecord{
			{Sub: setup, Release: ms(0), Deadline: ms(4), WCET: msd(2), Completed: true, Completion: ms(2)},
			{Sub: comp, Release: ms(8), Deadline: ms(20), WCET: msd(3), Completed: true, Completion: ms(11)},
			{Sub: other, Release: ms(0), Deadline: ms(30), WCET: msd(6), Completed: true, Completion: ms(8)},
		},
	}
}

// corpus returns the shared labeled corpus: the valid fixtures plus
// every seeded violation the reference checker unit tests pin.
func corpus() []struct {
	name string
	tr   *Trace
} {
	mutate := func(f func(tr *Trace)) *Trace {
		tr := validTrace()
		f(tr)
		return tr
	}
	return []struct {
		name string
		tr   *Trace
	}{
		{"valid", validTrace()},
		{"suspension", suspensionTrace()},
		{"abandoned", abandonedTrace()},
		{"zero-wcet", zeroWCETTrace()},
		{"zero-wcet-at-segment-end", zeroWCETAtSegmentEndTrace()},
		{"reopen-after-retire", reopenAfterRetireTrace()},
		{"empty-trace", &Trace{}},
		{"empty-segment", mutate(func(tr *Trace) { tr.Segments[0].End = tr.Segments[0].Start })},
		{"unknown-sub", mutate(func(tr *Trace) { tr.Segments[0].Sub.TaskID = 99 })},
		{"pre-release", mutate(func(tr *Trace) { tr.Subs[0].Release = ms(1) })},
		{"past-completion", mutate(func(tr *Trace) { tr.Subs[0].Completion = ms(3) })},
		{"overlap", mutate(func(tr *Trace) {
			tr.Segments[1].Start = ms(3)
			tr.Subs[1].Release = ms(2)
		})},
		{"under-execution", mutate(func(tr *Trace) { tr.Subs[0].WCET = msd(5) })},
		{"finished-unmarked", mutate(func(tr *Trace) { tr.Subs[1].Completed = false })},
		{"completed-and-abandoned", mutate(func(tr *Trace) {
			tr.Subs[0].Abandoned = true
			tr.Subs[0].AbandonTime = ms(4)
		})},
		{"edf-violation", mutate(func(tr *Trace) {
			// τ2 (deadline 20) cuts in front of τ1 (deadline 10).
			tr.Segments[0].Sub, tr.Segments[1].Sub = tr.Segments[1].Sub, tr.Segments[0].Sub
			tr.Subs[0].Release, tr.Subs[1].Release = ms(0), ms(0)
			tr.Subs[0].WCET, tr.Subs[1].WCET = msd(3), msd(4)
			tr.Subs[0].Completion, tr.Subs[1].Completion = ms(7), ms(3)
		})},
		{"idle-gap", mutate(func(tr *Trace) {
			tr.Segments[1].Start = ms(5)
			tr.Segments[1].End = ms(8)
			tr.Subs[1].Completion = ms(8)
		})},
		{"leading-gap", mutate(func(tr *Trace) {
			tr.Segments[0].Start = ms(1)
			tr.Subs[0].WCET = msd(3)
		})},
		{"no-segments-while-ready", &Trace{
			Subs: []SubRecord{{
				Sub: SubID{TaskID: 1}, Release: ms(0), Deadline: ms(10), WCET: msd(4),
			}},
		}},
	}
}

// TestStreamMatchesInMemoryCorpus is the accept/reject differential on
// the shared corpus: Validate (the streaming one-pass checker) must
// agree with the materialized reference checkers on every fixture and
// every seeded violation.
func TestStreamMatchesInMemoryCorpus(t *testing.T) {
	for _, tc := range corpus() {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.tr.RefValidate()
			str := tc.tr.Validate()
			if (ref == nil) != (str == nil) {
				t.Fatalf("reference says %v, streaming says %v", ref, str)
			}
		})
	}
}

// EngineFuzzBases returns fixed-seed engine traces for
// FuzzValidateMatchesReference to mutate. This package cannot import
// the simulator, so engine_diff_test.go (package trace_test) installs
// it from init.
var EngineFuzzBases func() []*Trace

// cloneTrace deep-copies a trace so each fuzz input starts from the
// original.
func cloneTrace(tr *Trace) *Trace {
	return &Trace{
		Segments: append([]Segment(nil), tr.Segments...),
		Subs:     append([]SubRecord(nil), tr.Subs...),
	}
}

// FuzzValidateMatchesReference mutates a valid fixture (picked by
// base) with random time and lifecycle perturbations drawn from seed
// and asserts Validate keeps agreeing with the reference checkers on
// accept/reject. The seed corpus is the 400 (seed, seed mod 4) cases
// of the original table-driven test, 100 mutations of the segment-end
// zero-WCET fixture, and 100 mutations of each engine trace (bases 5
// and 6: split-EDF and abort-at-deadline).
func FuzzValidateMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 400; seed++ {
		f.Add(seed, uint8(seed%4))
	}
	for base := uint8(4); base <= 6; base++ {
		for seed := int64(0); seed < 100; seed++ {
			f.Add(seed, base)
		}
	}
	bases := []func() *Trace{validTrace, suspensionTrace, abandonedTrace, zeroWCETTrace, zeroWCETAtSegmentEndTrace}
	if EngineFuzzBases != nil {
		for _, tr := range EngineFuzzBases() {
			bases = append(bases, func() *Trace { return cloneTrace(tr) })
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, base uint8) {
		rng := rand.New(rand.NewSource(seed))
		tr := bases[int(base)%len(bases)]()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			delta := rtime.Duration(rng.Int63n(5) - 2)
			switch rng.Intn(8) {
			case 0:
				s := &tr.Segments[rng.Intn(len(tr.Segments))]
				s.Start += rtime.Instant(delta)
			case 1:
				s := &tr.Segments[rng.Intn(len(tr.Segments))]
				s.End += rtime.Instant(delta)
			case 2:
				tr.Subs[rng.Intn(len(tr.Subs))].Release += rtime.Instant(delta)
			case 3:
				tr.Subs[rng.Intn(len(tr.Subs))].Deadline += rtime.Instant(delta)
			case 4:
				tr.Subs[rng.Intn(len(tr.Subs))].Completion += rtime.Instant(delta)
			case 5:
				tr.Subs[rng.Intn(len(tr.Subs))].WCET += delta
			case 6:
				r := &tr.Subs[rng.Intn(len(tr.Subs))]
				r.Completed = !r.Completed
			case 7:
				r := &tr.Subs[rng.Intn(len(tr.Subs))]
				r.Abandoned = !r.Abandoned
				r.AbandonTime = rtime.Instant(rng.Int63n(12_000))
			}
		}
		ref := tr.RefValidate()
		str := tr.Validate()
		if (ref == nil) != (str == nil) {
			t.Fatalf("seed %d base %d: reference says %v, streaming says %v\ntrace: %+v", seed, base, ref, str, tr)
		}
	})
}

// TestReplayIntoTraceRoundTrips proves Replay's causal ordering is a
// faithful serialization: replaying a materialized trace into a fresh
// in-memory Trace reproduces it.
func TestReplayIntoTraceRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"valid", validTrace()},
		{"suspension", suspensionTrace()},
		{"abandoned", abandonedTrace()},
		{"zero-wcet", zeroWCETTrace()},
		{"zero-wcet-at-segment-end", zeroWCETAtSegmentEndTrace()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got Trace
			if err := tc.tr.Replay(&got); err != nil {
				t.Fatalf("replay: %v", err)
			}
			if fmt.Sprint(got.Segments) != fmt.Sprint(tc.tr.Segments) {
				t.Fatalf("segments changed:\n got %v\nwant %v", got.Segments, tc.tr.Segments)
			}
			if len(got.Subs) != len(tc.tr.Subs) {
				t.Fatalf("subs: got %d, want %d", len(got.Subs), len(tc.tr.Subs))
			}
		})
	}
}

// TestStreamCheckerCounts verifies the consumed-event accounting used
// to cross-check binary streams.
func TestStreamCheckerCounts(t *testing.T) {
	c := NewStreamChecker()
	tr := validTrace()
	if err := tr.Replay(c); err != nil {
		t.Fatalf("replay: %v", err)
	}
	segs, subs := c.Counts()
	if segs != int64(len(tr.Segments)) || subs != int64(len(tr.Subs)) {
		t.Fatalf("counts = (%d, %d), want (%d, %d)", segs, subs, len(tr.Segments), len(tr.Subs))
	}
}

// TestStreamCheckerStrictStreamErrors covers the stream-contract
// violations that have no reference-checker counterpart: they can
// only happen when a recorder misbehaves.
func TestStreamCheckerStrictStreamErrors(t *testing.T) {
	id := SubID{TaskID: 1}
	t.Run("out-of-order-open", func(t *testing.T) {
		c := NewStreamChecker()
		c.OpenSub(id, ms(5), ms(10), msd(1))
		c.OpenSub(SubID{TaskID: 2}, ms(4), ms(10), msd(1))
		if c.Err() == nil {
			t.Fatal("open released before its predecessor accepted")
		}
	})
	t.Run("reopen-after-retire-accepted", func(t *testing.T) {
		if err := reopenAfterRetireTrace().Validate(); err != nil {
			t.Fatalf("re-open of a retired sub-job rejected: %v", err)
		}
	})
	t.Run("duplicate-open", func(t *testing.T) {
		c := NewStreamChecker()
		c.OpenSub(id, ms(0), ms(10), msd(1))
		c.OpenSub(id, ms(0), ms(10), msd(1))
		if c.Err() == nil {
			t.Fatal("duplicate open accepted")
		}
	})
	t.Run("close-unopened", func(t *testing.T) {
		c := NewStreamChecker()
		c.CloseSub(SubRecord{Sub: id})
		if c.Err() == nil {
			t.Fatal("unopened close accepted")
		}
	})
	t.Run("double-close", func(t *testing.T) {
		c := NewStreamChecker()
		c.OpenSub(id, ms(0), ms(10), 0)
		rec := SubRecord{Sub: id, Deadline: ms(10), Completed: true, Completion: ms(0)}
		c.CloseSub(rec)
		c.CloseSub(rec)
		if c.Err() == nil {
			t.Fatal("double close accepted")
		}
	})
	t.Run("inconsistent-close", func(t *testing.T) {
		c := NewStreamChecker()
		c.OpenSub(id, ms(0), ms(10), msd(1))
		c.CloseSub(SubRecord{Sub: id, Release: ms(0), Deadline: ms(11), WCET: msd(1)})
		if c.Err() == nil {
			t.Fatal("deadline mismatch accepted")
		}
	})
}

// TestStreamCheckerBoundedLiveSet pins the memory story: a long
// sequential schedule streams through the checker with the count of
// in-use slots never growing past the in-flight count, so a sub-job
// that is never retired fails it. Each job opens a period ahead of its
// release, so the pending queue is never drained and only its
// compaction keeps it bounded too.
func TestStreamCheckerBoundedLiveSet(t *testing.T) {
	c := NewStreamChecker()
	const n = 10_000
	open := func(i int) {
		rel := ms(int64(i) * 10)
		c.OpenSub(SubID{TaskID: 1, Seq: int64(i), Kind: Local}, rel, rel+rtime.Instant(msd(10)), msd(4))
	}
	open(0)
	for i := 0; i < n; i++ {
		if i+1 < n {
			open(i + 1)
		}
		id := SubID{TaskID: 1, Seq: int64(i), Kind: Local}
		rel := ms(int64(i) * 10)
		c.AppendSegment(Segment{Start: rel, End: rel + rtime.Instant(msd(4)), Sub: id})
		c.CloseSub(SubRecord{
			Sub: id, Release: rel, Deadline: rel + rtime.Instant(msd(10)), WCET: msd(4),
			Completed: true, Completion: rel + rtime.Instant(msd(4)),
		})
		if c.live > 2 {
			t.Fatalf("%d slots in use at job %d; retirement is broken", c.live, i)
		}
		if len(c.pending) > 2 {
			t.Fatalf("pending queue holds %d entries at job %d; compaction is broken", len(c.pending), i)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("sequential schedule rejected: %v", err)
	}
}

// TestReserveStopsAppendReallocation is the Append-growth regression
// test: after Reserve, recording within the hint allocates nothing.
func TestReserveStopsAppendReallocation(t *testing.T) {
	const segs, subs = 1024, 256
	var tr Trace
	tr.Reserve(segs, subs)
	allocs := testing.AllocsPerRun(10, func() {
		tr.Segments = tr.Segments[:0]
		tr.Subs = tr.Subs[:0]
		for i := 0; i < segs; i++ {
			start := ms(int64(i) * 2)
			tr.Append(Segment{Start: start, End: start + rtime.Instant(msd(1)), Sub: SubID{TaskID: i}})
		}
		for i := 0; i < subs; i++ {
			tr.CloseSub(SubRecord{Sub: SubID{TaskID: i}})
		}
	})
	if allocs != 0 {
		t.Fatalf("recording within the Reserve hint allocates %.1f times per run, want 0", allocs)
	}
	var fresh Trace
	fresh.Reserve(segs, subs)
	if cap(fresh.Segments) < segs || cap(fresh.Subs) < subs {
		t.Fatalf("Reserve capacities (%d, %d), want at least (%d, %d)",
			cap(fresh.Segments), cap(fresh.Subs), segs, subs)
	}
}

// TestStreamCheckerZeroAlloc gates the //rtlint:hotpath contract on
// the checker's event path: once warm, a steady-state window of
// opens, preempting segments and closes — with slot reuse, stale heap
// entries and pending-queue compaction — allocates nothing.
func TestStreamCheckerZeroAlloc(t *testing.T) {
	c := NewStreamChecker()
	c.Reserve(4)
	var round int64
	// One round at base T: A (deadline T+50) runs [T,T+5), B released
	// at T+5 with deadline T+20 preempts it for [T+5,T+10), and A
	// finishes in [T+10,T+15). Events follow the Sink contract order.
	step := func() {
		base := ms(round * 100)
		at := func(d int64) rtime.Instant { return base + rtime.Instant(msd(d)) }
		a := SubID{TaskID: 1, Seq: round}
		b := SubID{TaskID: 2, Seq: round}
		c.OpenSub(a, at(0), at(50), msd(10))
		c.OpenSub(b, at(5), at(20), msd(5))
		c.AppendSegment(Segment{Start: at(0), End: at(5), Sub: a})
		c.CloseSub(SubRecord{Sub: b, Release: at(5), Deadline: at(20), WCET: msd(5), Completed: true, Completion: at(10)})
		c.AppendSegment(Segment{Start: at(5), End: at(10), Sub: b})
		c.CloseSub(SubRecord{Sub: a, Release: at(0), Deadline: at(50), WCET: msd(10), Completed: true, Completion: at(15)})
		c.AppendSegment(Segment{Start: at(10), End: at(15), Sub: a})
		round++
	}
	for i := 0; i < 100; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	if allocs != 0 {
		t.Fatalf("warm checker event path allocates %.1f times per run; the hotpath contract is 0", allocs)
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("steady-state schedule rejected: %v", err)
	}
	if c.live > 2 {
		t.Fatalf("%d slots in use after the window; retirement is broken", c.live)
	}
}
