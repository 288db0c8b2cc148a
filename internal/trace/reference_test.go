package trace

// reference_test.go retains the original materialized trace checkers
// as a test-only oracle for the one-pass StreamChecker that Validate
// runs. Each checker rescans the whole trace — EDF order and work
// conservation are O(segments × subs) — which is why production
// verifies in one streaming pass instead; the bodies are the seed
// implementation verbatim, renamed with a ref prefix so they cannot be
// mistaken for package API. RefValidate is exported for the external
// engine-trace differential (engine_diff_test.go).

import (
	"fmt"

	"rtoffload/internal/rtime"
)

// RefValidate runs every reference checker and returns the first
// violation.
func (tr *Trace) RefValidate() error {
	if err := tr.refCheckWellFormed(); err != nil {
		return err
	}
	if err := tr.refCheckNoOverlap(); err != nil {
		return err
	}
	if err := tr.refCheckBudgets(); err != nil {
		return err
	}
	if err := tr.refCheckEDFOrder(); err != nil {
		return err
	}
	return tr.refCheckWorkConserving()
}

// refCheckWellFormed verifies structural sanity: positive-length
// segments, segments within their sub-job's [release, completion]
// window, and every segment belonging to a recorded sub-job.
func (tr *Trace) refCheckWellFormed() error {
	recs := tr.refIndex()
	for i, s := range tr.Segments {
		if s.End <= s.Start {
			return fmt.Errorf("trace: segment %d empty or inverted: [%v, %v)", i, s.Start, s.End)
		}
		r, ok := recs[s.Sub]
		if !ok {
			return fmt.Errorf("trace: segment %d references unknown sub-job %v", i, s.Sub)
		}
		if s.Start < r.Release {
			return fmt.Errorf("trace: %v executes at %v before release %v", s.Sub, s.Start, r.Release)
		}
		if end := r.end(); s.End > end {
			return fmt.Errorf("trace: %v executes past its end %v", s.Sub, end)
		}
	}
	return nil
}

// refCheckNoOverlap verifies single-processor exclusivity.
func (tr *Trace) refCheckNoOverlap() error {
	segs := tr.sortedSegments()
	for i := 1; i < len(segs); i++ {
		if segs[i].Start < segs[i-1].End {
			return fmt.Errorf("trace: segments overlap: %v in [%v,%v) and %v in [%v,%v)",
				segs[i-1].Sub, segs[i-1].Start, segs[i-1].End,
				segs[i].Sub, segs[i].Start, segs[i].End)
		}
	}
	return nil
}

// refCheckBudgets verifies that every completed sub-job executed
// exactly its WCET and every incomplete one strictly less.
func (tr *Trace) refCheckBudgets() error {
	exec := make(map[SubID]rtime.Duration, len(tr.Subs))
	for _, s := range tr.Segments {
		exec[s.Sub] += s.End.Sub(s.Start)
	}
	for _, r := range tr.Subs {
		got := exec[r.Sub]
		if r.Completed && got != r.WCET {
			return fmt.Errorf("trace: %v executed %v, want WCET %v", r.Sub, got, r.WCET)
		}
		if !r.Completed && got >= r.WCET && r.WCET > 0 {
			return fmt.Errorf("trace: %v executed full WCET %v but is not completed", r.Sub, r.WCET)
		}
		if r.Completed && r.Abandoned {
			return fmt.Errorf("trace: %v both completed and abandoned", r.Sub)
		}
	}
	return nil
}

// refCheckEDFOrder verifies the EDF invariant: whenever a sub-job
// executes, no other ready, unfinished sub-job has a strictly earlier
// deadline. Readiness of sub-job k during segment s means
// k.Release ≤ segment time < k's completion (or trace end if
// unfinished).
func (tr *Trace) refCheckEDFOrder() error {
	for _, s := range tr.Segments {
		running := tr.refFind(s.Sub)
		if running == nil {
			return fmt.Errorf("trace: segment references unknown sub-job %v", s.Sub)
		}
		for i := range tr.Subs {
			k := &tr.Subs[i]
			if k.Sub == s.Sub {
				continue
			}
			if k.Deadline >= running.Deadline {
				continue
			}
			// k is ready during (start, end) if it released before the
			// segment ends and completes after the segment starts.
			kEnd := k.end()
			overlapStart := rtime.MaxInstant(s.Start, k.Release)
			overlapEnd := rtime.MinInstant(s.End, kEnd)
			if overlapStart < overlapEnd {
				return fmt.Errorf("trace: EDF violation: %v (deadline %v) ran during [%v,%v) while %v (deadline %v) was ready",
					s.Sub, running.Deadline, overlapStart, overlapEnd, k.Sub, k.Deadline)
			}
		}
	}
	return nil
}

// refCheckWorkConserving verifies the processor never idles while a
// sub-job is ready: for every maximal idle gap between segments, no
// sub-job may be ready anywhere inside it.
func (tr *Trace) refCheckWorkConserving() error {
	segs := tr.sortedSegments()
	checkGap := func(from, to rtime.Instant) error {
		if to <= from {
			return nil
		}
		for i := range tr.Subs {
			k := &tr.Subs[i]
			kEnd := k.end()
			s := rtime.MaxInstant(from, k.Release)
			e := rtime.MinInstant(to, kEnd)
			if s < e {
				return fmt.Errorf("trace: processor idle in [%v,%v) while %v was ready", s, e, k.Sub)
			}
		}
		return nil
	}
	for i := 1; i < len(segs); i++ {
		if err := checkGap(segs[i-1].End, segs[i].Start); err != nil {
			return err
		}
	}
	// Leading gap: from the earliest release to the first segment.
	if len(tr.Subs) > 0 {
		first := rtime.Forever
		for _, r := range tr.Subs {
			if r.Release < first {
				first = r.Release
			}
		}
		var firstSeg rtime.Instant = rtime.Forever
		if len(segs) > 0 {
			firstSeg = segs[0].Start
		}
		if err := checkGap(first, firstSeg); err != nil {
			return err
		}
	}
	return nil
}

// refDeadlineMisses lists completed sub-jobs finishing after their
// deadlines and unfinished sub-jobs (which can never meet them).
func (tr *Trace) refDeadlineMisses() []SubID {
	var out []SubID
	for _, r := range tr.Subs {
		if !r.Completed || r.Completion > r.Deadline {
			out = append(out, r.Sub)
		}
	}
	return out
}

func (tr *Trace) refIndex() map[SubID]*SubRecord {
	m := make(map[SubID]*SubRecord, len(tr.Subs))
	for i := range tr.Subs {
		m[tr.Subs[i].Sub] = &tr.Subs[i]
	}
	return m
}

func (tr *Trace) refFind(id SubID) *SubRecord {
	for i := range tr.Subs {
		if tr.Subs[i].Sub == id {
			return &tr.Subs[i]
		}
	}
	return nil
}
