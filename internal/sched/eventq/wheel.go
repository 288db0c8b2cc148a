package eventq

// This file adds the calendar tier the event queues grow into at
// fleet scale. A Heap is exactly right for a few hundred tasks — every
// operation is O(log n) with a tiny constant — but at 10⁵–10⁶ tasks
// the release, wake, and deadline queues hold one entry per task (or
// live job) and each push/pop walks a 17-deep tree of cache misses.
// Those three queues are *time* queues: their keys are instants on the
// simulation clock, popped in non-decreasing order, and pushed keys
// never precede the last popped key (an event is always scheduled at
// or after "now"). That monotonicity is what a hierarchical time wheel
// exploits: O(1) insert, and pops that touch one small bucket instead
// of rebalancing a global tree.
//
// Calendar is that structure, in three tiers. Entries hash by key into
// a ring of power-of-two buckets, each covering a fixed power-of-two
// granule of simulation time; entries beyond the ring's horizon
// overflow into a lazily-migrated Heap (the far-future tier — a
// one-year timer on a microsecond wheel). At the near end, the bucket
// under the cursor is drained once into a small *front* heap that all
// pops come from, so a pathological bucket — every task releasing at
// instant 0, say — costs O(b log b) total instead of the O(b²) a
// per-pop bucket scan would (wheel_test.go's scaling test pins this).
// Bucket ranges are disjoint in key space, so the front heap's minimum
// is the global minimum whenever it is non-empty, and the pop order is
// exactly the Heap's total (Key, TieA, TieB) order: two engines
// running the same workload on a Heap and on a Calendar produce
// bit-identical schedules (wheel_test.go pins this with a randomized
// differential test, diff_test.go end to end).
//
// The zero value is a degenerate wheel with no ring: every entry lives
// in the overflow Heap, making zero-valued Calendars drop-in
// equivalents of plain Heaps for small systems and tests.

// ringLocBase offsets packed ring locations so they can never collide
// with the sentinel locations.
const (
	locAbsent   int64 = 0
	locOverflow int64 = 1
	locFront    int64 = 2
	ringLocBase int64 = 1 << 32
)

// Calendar is a bucketed time wheel over Entries with a front heap for
// the bucket being consumed and a lazy heap fallback for far-future
// keys. It implements the same operations as Heap with the same total
// (Key, TieA, TieB) pop order; keys must be non-negative and — like
// every event calendar in the engine — pushes must not precede the
// last popped key's bucket (pushing "into the past" is tolerated by
// routing into the front heap, preserving order exactness, but
// indicates a misuse upstream).
type Calendar struct {
	// shift and mask define the geometry: each bucket spans 1<<shift
	// key units and the ring holds mask+1 buckets. A nil ring means
	// heap mode: all entries live in overflow.
	shift uint
	mask  int64
	//rtlint:arena
	buckets [][]Entry
	// cur is the absolute bucket index (key >> shift) the wheel has
	// advanced to; ring entries hash to slot cur&mask .. (cur+mask)&mask.
	cur int64
	// ringCount is the number of entries resident in ring buckets
	// (excluding the front heap).
	ringCount int
	// front holds the drained current bucket plus any entries pushed
	// at or behind the cursor; while non-empty its minimum is the
	// calendar's minimum.
	front Heap
	// overflow holds entries whose bucket lies beyond cur+mask, plus
	// everything in heap mode.
	overflow Heap
	// loc[h] locates handle h: locAbsent, locOverflow, locFront, or
	// ringLocBase + slot<<32 + index-within-bucket.
	//rtlint:arena
	loc []int64
}

// InitWheel switches c to wheel mode with 1<<bucketBits ring buckets
// of 1<<granuleShift key units each, dropping any queued entries. The
// zero value (heap mode) needs no initialization.
func (c *Calendar) InitWheel(granuleShift uint, bucketBits uint) {
	*c = Calendar{
		shift:   granuleShift,
		mask:    int64(1)<<bucketBits - 1,
		buckets: make([][]Entry, int64(1)<<bucketBits),
	}
}

// Len reports the number of queued entries.
func (c *Calendar) Len() int { return c.ringCount + c.front.Len() + c.overflow.Len() }

// Contains reports whether handle hd is queued.
//
//rtlint:allow reach -- waiting on the wheel deletion: the heap-vs-wheel differential tests use it, and it goes with the Calendar once _perfbench is revised
func (c *Calendar) Contains(hd int32) bool {
	if c.buckets == nil {
		return c.overflow.Contains(hd)
	}
	return int(hd) < len(c.loc) && c.loc[hd] != locAbsent
}

// Push inserts e. The handle must not already be queued.
func (c *Calendar) Push(e Entry) {
	if c.buckets == nil {
		c.overflow.Push(e)
		return
	}
	if int(e.H) >= len(c.loc) {
		n := int(e.H) + 1
		if n < 2*len(c.loc) {
			// Doubling keeps monotonically growing handle spaces
			// amortized O(1) per push (see Heap.Push).
			n = 2 * len(c.loc)
		}
		grown := make([]int64, n) //rtlint:allow hotalloc -- handle-table growth; amortized out by doubling
		copy(grown, c.loc)
		c.loc = grown
	}
	b := e.Key >> c.shift
	switch {
	case b <= c.cur:
		// The bucket under the cursor (or behind it — see the type
		// comment): consumed through the front heap.
		c.front.Push(e)
		c.loc[e.H] = locFront
	case b <= c.cur+c.mask:
		c.place(b, e)
	default:
		c.overflow.Push(e)
		c.loc[e.H] = locOverflow
	}
}

// place appends e to the ring bucket for absolute bucket index b
// (which must lie in (cur, cur+mask]) and records its location.
func (c *Calendar) place(b int64, e Entry) {
	slot := b & c.mask
	c.buckets[slot] = append(c.buckets[slot], e)
	c.loc[e.H] = ringLocBase + slot<<32 + int64(len(c.buckets[slot])-1)
	c.ringCount++
}

// Min returns the least entry without removing it. It must not be
// called on an empty calendar.
func (c *Calendar) Min() Entry {
	if c.buckets == nil {
		return c.overflow.Min()
	}
	if c.front.Len() == 0 {
		c.advance()
	}
	return c.front.Min()
}

// PopMin removes and returns the least entry. It must not be called on
// an empty calendar.
func (c *Calendar) PopMin() Entry {
	if c.buckets == nil {
		return c.overflow.PopMin()
	}
	if c.front.Len() == 0 {
		c.advance()
	}
	e := c.front.PopMin()
	c.loc[e.H] = locAbsent
	return e
}

// Remove deletes the entry with handle hd from anywhere in the
// calendar, reporting whether it was present.
func (c *Calendar) Remove(hd int32) bool {
	if c.buckets == nil {
		return c.overflow.Remove(hd)
	}
	if int(hd) >= len(c.loc) || c.loc[hd] == locAbsent {
		return false
	}
	c.unlink(hd)
	return true
}

// unlink removes a present handle from its bucket, the front heap, or
// overflow.
func (c *Calendar) unlink(hd int32) {
	switch l := c.loc[hd]; l {
	case locOverflow:
		c.overflow.Remove(hd)
	case locFront:
		c.front.Remove(hd)
	default:
		slot := (l - ringLocBase) >> 32
		idx := (l - ringLocBase) & (1<<32 - 1)
		bucket := c.buckets[slot]
		last := len(bucket) - 1
		if int(idx) != last {
			moved := bucket[last]
			bucket[idx] = moved
			c.loc[moved.H] = ringLocBase + slot<<32 + idx
		}
		c.buckets[slot] = bucket[:last]
		c.ringCount--
	}
	c.loc[hd] = locAbsent
}

// advance moves the cursor to the next occupied bucket — migrating
// overflow entries that come into the ring's horizon as it moves — and
// drains that bucket into the front heap. The front heap must be empty
// and the calendar non-empty.
func (c *Calendar) advance() {
	if c.ringCount == 0 {
		// The ring is drained: jump the cursor straight to the
		// overflow minimum's bucket (the lazy far-future tier).
		c.cur = c.overflow.Min().Key >> c.shift
		c.migrate()
	}
	for len(c.buckets[c.cur&c.mask]) == 0 {
		c.cur++
		c.migrate()
	}
	slot := c.cur & c.mask
	bucket := c.buckets[slot]
	for _, e := range bucket {
		c.front.Push(e)
		c.loc[e.H] = locFront
	}
	c.ringCount -= len(bucket)
	c.buckets[slot] = bucket[:0]
}

// migrate moves overflow entries whose bucket now lies within the
// ring's horizon into the ring. Each entry migrates at most once over
// its lifetime, so the amortized cost stays O(log overflow) per
// far-future event. The cursor's own bucket is placed in the ring too:
// migrate only runs inside advance, which drains that bucket into the
// front heap before any pop.
func (c *Calendar) migrate() {
	for c.overflow.Len() > 0 {
		e := c.overflow.Min()
		b := e.Key >> c.shift
		if b > c.cur+c.mask {
			return
		}
		c.overflow.PopMin()
		if b <= c.cur {
			b = c.cur
		}
		c.place(b, e)
	}
}

// Reset empties the calendar, retaining ring and table storage.
//
//rtlint:allow reach -- waiting on the wheel deletion: the heap-vs-wheel differential tests use it, and it goes with the Calendar once _perfbench is revised
func (c *Calendar) Reset() {
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	for i := range c.loc {
		c.loc[i] = locAbsent
	}
	c.front.Reset()
	c.overflow.Reset()
	c.ringCount = 0
	c.cur = 0
}
