package dbf

import "rtoffload/internal/rtime"

// stepStream is one arithmetic progression of demand steps (off,
// off+period, …). PDC merges these lazily instead of materializing
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
		for _, st := range d.stepStreams() {
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
