package trace

import (
	"strings"
	"testing"

	"rtoffload/internal/rtime"
)

func ms(v int64) rtime.Instant   { return rtime.Instant(rtime.FromMillis(v)) }
func msd(v int64) rtime.Duration { return rtime.FromMillis(v) }

// validTrace builds a correct 2-task EDF schedule:
//
//	τ1 local: release 0, deadline 10, WCET 4  → runs [0,4)
//	τ2 local: release 2, deadline 20, WCET 3  → runs [4,7)
func validTrace() *Trace {
	s1 := SubID{TaskID: 1, Seq: 0, Kind: Local}
	s2 := SubID{TaskID: 2, Seq: 0, Kind: Local}
	return &Trace{
		Segments: []Segment{
			{Start: ms(0), End: ms(4), Sub: s1},
			{Start: ms(4), End: ms(7), Sub: s2},
		},
		Subs: []SubRecord{
			{Sub: s1, Release: ms(0), Deadline: ms(10), WCET: msd(4), Completed: true, Completion: ms(4)},
			{Sub: s2, Release: ms(2), Deadline: ms(20), WCET: msd(3), Completed: true, Completion: ms(7)},
		},
	}
}

func TestValidTrace(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if err := validTrace().RefValidate(); err != nil {
		t.Fatalf("valid trace rejected by the reference: %v", err)
	}
}

func TestKindSubIDStrings(t *testing.T) {
	for k, want := range map[Kind]string{Local: "local", Setup: "setup", Post: "post", Comp: "comp"} {
		if k.String() != want {
			t.Errorf("Kind %d = %q", int(k), k.String())
		}
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
	id := SubID{TaskID: 3, Seq: 7, Kind: Setup}
	if got := id.String(); !strings.Contains(got, "τ3") || !strings.Contains(got, "setup") {
		t.Errorf("SubID string %q", got)
	}
}

// rejectBoth asserts that the named reference checker and the
// production Validate both reject tr.
func rejectBoth(t *testing.T, tr *Trace, ref func(*Trace) error, what string) {
	t.Helper()
	if err := ref(tr); err == nil {
		t.Errorf("%s accepted by the reference checker", what)
	}
	if err := tr.Validate(); err == nil {
		t.Errorf("%s accepted by Validate", what)
	}
}

func TestCheckWellFormed(t *testing.T) {
	tr := validTrace()
	tr.Segments[0].End = tr.Segments[0].Start // empty segment
	rejectBoth(t, tr, (*Trace).refCheckWellFormed, "empty segment")

	tr = validTrace()
	tr.Segments[0].Sub.TaskID = 99
	rejectBoth(t, tr, (*Trace).refCheckWellFormed, "unknown sub-job")

	tr = validTrace()
	tr.Subs[0].Release = ms(1) // executes at 0 before release
	rejectBoth(t, tr, (*Trace).refCheckWellFormed, "pre-release execution")

	tr = validTrace()
	tr.Subs[0].Completion = ms(3) // executes past completion
	rejectBoth(t, tr, (*Trace).refCheckWellFormed, "post-completion execution")
}

func TestCheckNoOverlap(t *testing.T) {
	tr := validTrace()
	tr.Segments[1].Start = ms(3)
	tr.Subs[1].Release = ms(2)
	rejectBoth(t, tr, (*Trace).refCheckNoOverlap, "overlap")
}

func TestCheckBudgets(t *testing.T) {
	tr := validTrace()
	tr.Subs[0].WCET = msd(5) // executed 4, claims completion
	rejectBoth(t, tr, (*Trace).refCheckBudgets, "under-execution")
	tr = validTrace()
	tr.Subs[1].Completed = false // executed full WCET but "unfinished"
	rejectBoth(t, tr, (*Trace).refCheckBudgets, "finished-but-unmarked")
}

func TestCheckEDFOrder(t *testing.T) {
	// τ2 (deadline 20) runs [0,3) while τ1 (deadline 10) is ready: violation.
	s1 := SubID{TaskID: 1, Kind: Local}
	s2 := SubID{TaskID: 2, Kind: Local}
	tr := &Trace{
		Segments: []Segment{
			{Start: ms(0), End: ms(3), Sub: s2},
			{Start: ms(3), End: ms(7), Sub: s1},
		},
		Subs: []SubRecord{
			{Sub: s1, Release: ms(0), Deadline: ms(10), WCET: msd(4), Completed: true, Completion: ms(7)},
			{Sub: s2, Release: ms(0), Deadline: ms(20), WCET: msd(3), Completed: true, Completion: ms(3)},
		},
	}
	for name, check := range map[string]func(*Trace) error{
		"reference": (*Trace).refCheckEDFOrder,
		"Validate":  (*Trace).Validate,
	} {
		err := check(tr)
		if err == nil {
			t.Fatalf("%s: EDF violation accepted", name)
		}
		if !strings.Contains(err.Error(), "EDF violation") {
			t.Errorf("%s: unexpected error %v", name, err)
		}
		// The valid trace passes: τ2 released at 2 but τ1 (earlier
		// deadline) runs first.
		if err := check(validTrace()); err != nil {
			t.Fatalf("%s: valid EDF order rejected: %v", name, err)
		}
	}
}

func TestCheckEDFOrderSuspension(t *testing.T) {
	// An offloaded task's compensation sub-job releases late (after the
	// suspension); a lower-priority job running before that release is
	// NOT a violation.
	setup := SubID{TaskID: 1, Kind: Setup}
	comp := SubID{TaskID: 1, Kind: Comp}
	other := SubID{TaskID: 2, Kind: Local}
	tr := &Trace{
		Segments: []Segment{
			{Start: ms(0), End: ms(2), Sub: setup},
			{Start: ms(2), End: ms(8), Sub: other}, // runs during τ1's suspension
			{Start: ms(8), End: ms(11), Sub: comp}, // compensation after timer
		},
		Subs: []SubRecord{
			{Sub: setup, Release: ms(0), Deadline: ms(4), WCET: msd(2), Completed: true, Completion: ms(2)},
			{Sub: comp, Release: ms(8), Deadline: ms(20), WCET: msd(3), Completed: true, Completion: ms(11)},
			{Sub: other, Release: ms(0), Deadline: ms(30), WCET: msd(6), Completed: true, Completion: ms(8)},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("suspension schedule rejected: %v", err)
	}
	if err := tr.RefValidate(); err != nil {
		t.Fatalf("suspension schedule rejected by the reference: %v", err)
	}
}

func TestCheckWorkConserving(t *testing.T) {
	tr := validTrace()
	// Introduce an idle gap [4,5) while τ2 is ready.
	tr.Segments[1].Start = ms(5)
	tr.Segments[1].End = ms(8)
	tr.Subs[1].Completion = ms(8)
	rejectBoth(t, tr, (*Trace).refCheckWorkConserving, "idle-while-ready")
	// Leading idle gap: first release at 0 but execution starts at 1.
	tr = validTrace()
	tr.Segments[0].Start = ms(1)
	tr.Subs[0].WCET = msd(3)
	rejectBoth(t, tr, (*Trace).refCheckWorkConserving, "leading idle gap")
}

func TestDeadlineMisses(t *testing.T) {
	tr := validTrace()
	if m := tr.refDeadlineMisses(); len(m) != 0 {
		t.Fatalf("misses = %v", m)
	}
	tr.Subs[0].Completion = ms(11)
	tr.Subs[1].Completed = false
	m := tr.refDeadlineMisses()
	if len(m) != 2 {
		t.Fatalf("misses = %v, want 2", m)
	}
}

func TestTotalBusy(t *testing.T) {
	if b := validTrace().TotalBusy(); b != msd(7) {
		t.Errorf("TotalBusy = %v", b)
	}
}

func TestValidateOrderOfChecks(t *testing.T) {
	// Validate must catch a malformed trace before the EDF check
	// dereferences unknown sub-jobs.
	tr := &Trace{
		Segments: []Segment{{Start: ms(0), End: ms(1), Sub: SubID{TaskID: 1}}},
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("trace with no sub records accepted")
	}
	if err := tr.RefValidate(); err == nil {
		t.Fatal("trace with no sub records accepted by the reference")
	}
}

func TestAppendCoalescesAdjacentSameSub(t *testing.T) {
	s1 := SubID{TaskID: 1, Seq: 0, Kind: Local}
	s2 := SubID{TaskID: 2, Seq: 0, Kind: Local}
	var tr Trace
	// One continuous execution of s1 sliced at two internal instants
	// must collapse to a single segment.
	tr.Append(Segment{Start: ms(0), End: ms(2), Sub: s1})
	tr.Append(Segment{Start: ms(2), End: ms(3), Sub: s1})
	tr.Append(Segment{Start: ms(3), End: ms(5), Sub: s1})
	if len(tr.Segments) != 1 {
		t.Fatalf("coalescing failed: %d segments", len(tr.Segments))
	}
	if got := tr.Segments[0]; got.Start != ms(0) || got.End != ms(5) {
		t.Fatalf("merged segment [%v,%v)", got.Start, got.End)
	}
	// A different sub-job breaks the run even when the times touch.
	tr.Append(Segment{Start: ms(5), End: ms(6), Sub: s2})
	// A later resumption of s1 (gap: s2 ran in between) starts fresh.
	tr.Append(Segment{Start: ms(6), End: ms(8), Sub: s1})
	if len(tr.Segments) != 3 {
		t.Fatalf("want 3 segments after preemption, got %d", len(tr.Segments))
	}
	if tr.TotalBusy() != msd(8) {
		t.Fatalf("busy = %v", tr.TotalBusy())
	}
}

func TestAppendSkipsGapsAndEmptySegments(t *testing.T) {
	s1 := SubID{TaskID: 1, Seq: 0, Kind: Local}
	var tr Trace
	tr.Append(Segment{Start: ms(0), End: ms(2), Sub: s1})
	tr.Append(Segment{Start: ms(2), End: ms(2), Sub: s1}) // empty: dropped
	if len(tr.Segments) != 1 || tr.Segments[0].End != ms(2) {
		t.Fatalf("empty segment not ignored: %+v", tr.Segments)
	}
	// Same sub but an idle gap in between: kept separate.
	tr.Append(Segment{Start: ms(4), End: ms(6), Sub: s1})
	if len(tr.Segments) != 2 {
		t.Fatalf("gap wrongly coalesced: %+v", tr.Segments)
	}
}
