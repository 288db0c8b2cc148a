// Package eventq provides the typed, boxing-free priority queues the
// event-calendar simulation engine in package sched is built on.
//
// A Heap is an indexed binary min-heap over fixed-width integer keys.
// Every entry carries a lexicographic (Key, TieA, TieB) triple and a
// small non-negative integer handle identifying the payload (an arena
// slot or an assignment index in the simulator). Because the triple is
// a total order for every queue the simulator maintains — ties always
// break on task identity and job sequence — the pop order is fully
// determined by the entry values, never by the heap's internal layout.
// That property is what lets two structurally different engines
// (the event-calendar engine and the retained reference dispatcher)
// produce bit-identical schedules.
//
// Unlike container/heap, the implementation stores entries inline
// (no interface{} boxing, no per-operation allocation once the backing
// arrays have grown) and tracks each handle's position, so an entry
// can be removed from the middle of the queue in O(log n) — aborted
// jobs leave their queues eagerly instead of being lazily skipped at
// pop time.
package eventq

// Entry is one queued event. Entries are ordered by Key, then TieA,
// then TieB, ascending. H is the caller's payload handle; a handle may
// be present in a given Heap at most once.
type Entry struct {
	Key  int64
	TieA int64
	TieB int64
	H    int32
}

// less is the lexicographic entry order.
func (e Entry) less(o Entry) bool {
	if e.Key != o.Key {
		return e.Key < o.Key
	}
	if e.TieA != o.TieA {
		return e.TieA < o.TieA
	}
	return e.TieB < o.TieB
}

// Heap is an indexed min-heap of Entries. The zero value is an empty
// heap ready for use.
type Heap struct {
	es []Entry
	// pos[h] is the index of handle h in es plus one; zero means the
	// handle is not queued.
	pos []int32
}

// Len reports the number of queued entries.
func (h *Heap) Len() int { return len(h.es) }

// Min returns the least entry without removing it. It must not be
// called on an empty heap.
func (h *Heap) Min() Entry { return h.es[0] }

// Contains reports whether handle hd is queued.
//
//rtlint:allow reach -- waiting on the wheel deletion: the heap-vs-wheel differential tests use it, and it goes with the Calendar once _perfbench is revised
func (h *Heap) Contains(hd int32) bool {
	return int(hd) < len(h.pos) && h.pos[hd] != 0
}

// Push inserts e. The handle must not already be queued.
func (h *Heap) Push(e Entry) {
	if int(e.H) >= len(h.pos) {
		n := int(e.H) + 1
		if n < 2*len(h.pos) {
			// Doubling keeps monotonically growing handle spaces
			// (job-indexed queues at fleet scale) amortized O(1) per
			// push instead of one full-table copy each.
			n = 2 * len(h.pos)
		}
		grown := make([]int32, n) //rtlint:allow hotalloc -- handle-table growth; amortized out by doubling
		copy(grown, h.pos)
		h.pos = grown
	}
	h.es = append(h.es, e)
	h.up(len(h.es) - 1)
}

// PopMin removes and returns the least entry. It must not be called on
// an empty heap.
func (h *Heap) PopMin() Entry {
	min := h.es[0]
	n := len(h.es) - 1
	h.swap(0, n)
	h.pos[min.H] = 0
	h.es = h.es[:n]
	if n > 0 {
		h.down(0)
	}
	return min
}

// Remove deletes the entry with handle hd from anywhere in the heap,
// reporting whether it was present.
func (h *Heap) Remove(hd int32) bool {
	if int(hd) >= len(h.pos) || h.pos[hd] == 0 {
		return false
	}
	i := int(h.pos[hd]) - 1
	n := len(h.es) - 1
	h.swap(i, n)
	h.pos[hd] = 0
	h.es = h.es[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	return true
}

// Reset empties the heap, retaining the backing arrays for reuse.
//
//rtlint:allow reach -- waiting on the wheel deletion: the heap-vs-wheel differential tests use it, and it goes with the Calendar once _perfbench is revised
func (h *Heap) Reset() {
	for _, e := range h.es {
		h.pos[e.H] = 0
	}
	h.es = h.es[:0]
}

func (h *Heap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.pos[h.es[i].H] = int32(i) + 1
	h.pos[h.es[j].H] = int32(j) + 1
}

func (h *Heap) up(i int) {
	e := h.es[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h.es[parent]) {
			break
		}
		h.es[i] = h.es[parent]
		h.pos[h.es[i].H] = int32(i) + 1
		i = parent
	}
	h.es[i] = e
	h.pos[e.H] = int32(i) + 1
}

func (h *Heap) down(i int) {
	e := h.es[i]
	n := len(h.es)
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && h.es[r].less(h.es[kid]) {
			kid = r
		}
		if !h.es[kid].less(e) {
			break
		}
		h.es[i] = h.es[kid]
		h.pos[h.es[i].H] = int32(i) + 1
		i = kid
	}
	h.es[i] = e
	h.pos[e.H] = int32(i) + 1
}
