package dbf

// The processor demand criterion, kept as the test oracle for QPA and
// the Analyzer: it checks every demand step up to the horizon, where
// QPA scans back from the horizon over far fewer points.

import (
	"sort"

	"rtoffload/internal/rtime"
)

// pdc runs the processor demand criterion: the system is EDF-feasible
// on a unit-speed processor iff ΣDBF(t) ≤ t for every step t up to the
// analysis horizon. It returns nil when feasible, a *Violation when a
// window is overloaded, and ErrOverloaded when the long-run rate is
// ≥ 1 with positive demand growth.
func pdc(ds []Demand) error {
	h, err := refHorizon(ds)
	if err != nil {
		return err
	}
	// K-way streaming merge over per-demand step cursors: memory stays
	// O(#progressions) even when the horizon spans millions of steps.
	m := newStepMerger(ds, h)
	for t, ok := m.next(); ok; t, ok = m.next() {
		if dem := TotalDBF(ds, t); dem > t {
			return &Violation{T: t, Demand: dem}
		}
	}
	return nil
}

// stepStream is one arithmetic progression of demand steps (off,
// off+period, …). pdc merges these lazily instead of materializing
// every step up to the horizon, so long-horizon analyses stay
// O(#streams) in memory rather than O(#steps).
type stepStream struct {
	off, period rtime.Duration
}

// mergeCursor is one arithmetic progression in the k-way merge.
type mergeCursor struct {
	next   rtime.Duration
	period rtime.Duration
}

// stepMerger yields the deduplicated ascending union of all demands'
// steps up to a limit, without materializing the union. It is a
// binary min-heap of cursors keyed by their next step.
type stepMerger struct {
	heap  []mergeCursor
	limit rtime.Duration
}

// newStepMerger builds the merge with one cursor per progression of
// every demand.
func newStepMerger(ds []Demand, limit rtime.Duration) *stepMerger {
	m := &stepMerger{limit: limit}
	for _, d := range ds {
		for _, st := range d.(interface{ stepStreams() []stepStream }).stepStreams() {
			if st.off > limit {
				continue
			}
			m.push(mergeCursor{next: st.off, period: st.period})
		}
	}
	return m
}

// next returns the smallest unreported step ≤ limit, advancing every
// cursor currently at that step. ok is false when all cursors are
// exhausted.
func (m *stepMerger) next() (t rtime.Duration, ok bool) {
	if len(m.heap) == 0 {
		return 0, false
	}
	t = m.heap[0].next
	for len(m.heap) > 0 && m.heap[0].next == t {
		m.advanceTop()
	}
	return t, true
}

// advanceTop moves the top cursor to its next step, dropping it when
// exhausted, and restores the heap order.
func (m *stepMerger) advanceTop() {
	c := &m.heap[0]
	if c.next <= m.limit-c.period {
		c.next += c.period
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
		if len(m.heap) == 0 {
			return
		}
	}
	m.siftDown(0)
}

// push inserts a cursor and restores the heap order.
func (m *stepMerger) push(c mergeCursor) {
	m.heap = append(m.heap, c)
	for i := len(m.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if m.heap[parent].next <= m.heap[i].next {
			break
		}
		m.heap[parent], m.heap[i] = m.heap[i], m.heap[parent]
		i = parent
	}
}

// siftDown restores the heap property from index i.
func (m *stepMerger) siftDown(i int) {
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && m.heap[l].next < m.heap[smallest].next {
			smallest = l
		}
		if r < n && m.heap[r].next < m.heap[smallest].next {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.heap[i], m.heap[smallest] = m.heap[smallest], m.heap[i]
		i = smallest
	}
}

// StepsUpTo lists D, D+T, D+2T, … ≤ limit.
func (s Sporadic) StepsUpTo(limit rtime.Duration) []rtime.Duration {
	return stepsForOffset(nil, s.D, s.T, limit)
}

// stepStreams returns one arithmetic progression starting at D with
// period T.
func (s Sporadic) stepStreams() []stepStream {
	return []stepStream{{off: s.D, period: s.T}}
}

// StepsUpTo lists all points ≤ limit where either alignment's demand
// increases, deduplicated and ascending.
func (o Offloaded) StepsUpTo(limit rtime.Duration) []rtime.Duration {
	var steps []rtime.Duration
	for _, off := range o.offsets() {
		if off <= 0 {
			continue
		}
		steps = stepsForOffset(steps, off, o.T, limit)
	}
	return dedupSorted(steps)
}

// stepStreams returns one arithmetic progression per positive
// alignment offset, all with period T.
func (o Offloaded) stepStreams() []stepStream {
	streams := make([]stepStream, 0, 4)
	for _, off := range o.offsets() {
		if off <= 0 {
			continue
		}
		streams = append(streams, stepStream{off: off, period: o.T})
	}
	return streams
}

// stepsForOffset appends the steps off, off+T, … ≤ limit to dst.
func stepsForOffset(dst []rtime.Duration, off, period, limit rtime.Duration) []rtime.Duration {
	for s := off; s <= limit; {
		dst = append(dst, s)
		next := addDur(s, period)
		if next <= s {
			break // saturated at the int64 ceiling
		}
		s = next
	}
	return dst
}

func dedupSorted(xs []rtime.Duration) []rtime.Duration {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
