package sim

import (
	"math/bits"
	"slices"
)

// queue is the engine's event queue: a monotone radix queue over one slot
// slab.
//
// Events pop in the order (at, stamp, pri, seq); why stamp and pri sit
// between the deadline and the sequence number is in the package doc.
//
// Every pending deadline is >= last, the deadline of the last dispatched
// event, because the engine never schedules before its clock. Radix bucket
// b (1..63) holds the events whose deadline first differs from last at bit
// b-1, that is bits.Len64(at^last) == b; every deadline in bucket b is below
// every deadline in bucket b+1. A radix bucket is an unordered array of slot
// indices, stored as a chain of fixed-size chunks drawn from one shared
// chunk slab, so walking a bucket issues independent loads. Only a bucket's
// tail chunk is partly filled, so the buckets together hold at most
// pending/(chunkLen-1) + 63 chunks. Bucket 0 — the events due exactly at
// last — is the due run: sorted by (stamp, pri, seq) once, when a refill
// builds it, and drained front to back. When the run is drained, the lowest
// non-empty bucket is emptied: last moves to its minimum deadline and each
// of its events drops into the run or a lower bucket. An event only ever
// moves to lower buckets, so each costs amortised O(log of its distance
// from last) moves, independent of queue depth. The rare push at last
// itself is a binary-search insert into the undrained part of the run.
type queue struct {
	n    int     // pending events
	last Time    // deadline of the due run; no pending event is earlier
	due  []entry // bucket 0: the events at last, sorted; due[:head] is spent
	head int     // next entry of due to pop
	mask uint64  // bit b set iff radix bucket b is non-empty
	// Radix bucket b is a chain of chunks in idx from chunk first[b] to
	// the tail chunk, where pos[b] is the position of the bucket's next
	// slot index. A bucket keeps its first chunk when it is emptied; a
	// bucket that has no chunk has pos 0.
	first [64]int32
	pos   [64]int32
	min   [64]Time // minimum deadline of each radix bucket, maxTime if empty
	slots []slot   // slab of every pending event, plus free slots
	free  int32    // head of the free-slot list, nilSlot when empty
	// idx is the chunk slab: chunk c is idx[c*chunkLen:(c+1)*chunkLen],
	// whose first element links the next chunk of its chain and whose
	// others hold slot indices. freeChunk heads the free chunks, linked
	// the same way.
	idx       []int32
	freeChunk int32
}

// nilSlot ends a chunk chain or a free list.
const nilSlot int32 = -1

// slot is one event. next threads a free slot through the free list.
type slot struct {
	at    Time
	stamp Time
	pri   uint64
	seq   uint64
	call  func(any)
	arg   any
	next  int32
}

// chunkLen is the length of a chunk, a power of two: one link and
// chunkLen-1 slot indices.
const chunkLen = 64

// maxTime is the minimum deadline of an empty radix bucket.
const maxTime = Time(1<<63 - 1)

// entry is a due-run entry: the tie-break key beside its slot index, so
// sorting and searching never touch the slab.
type entry struct {
	stamp Time
	pri   uint64
	seq   uint64
	slot  int32
}

func (a *entry) less(b *entry) bool {
	if a.stamp != b.stamp {
		return a.stamp < b.stamp
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

func cmpEntry(a, b entry) int {
	switch {
	case a.less(&b):
		return -1
	case b.less(&a):
		return 1
	}
	return 0
}

// reset empties the queue, releasing every event's references and keeping
// the capacity of the slot slab, the chunk slab and the due run.
func (q *queue) reset() {
	clear(q.slots)
	q.slots = q.slots[:0]
	q.idx = q.idx[:0]
	q.due = q.due[:0]
	q.head = 0
	q.free = nilSlot
	q.freeChunk = nilSlot
	q.mask = 0
	q.pos = [64]int32{}
	for b := range q.min {
		q.min[b] = maxTime
	}
	q.last = 0
	q.n = 0
}

// push queues call(arg) at deadline at >= last.
func (q *queue) push(at, stamp Time, pri, seq uint64, call func(any), arg any) {
	i := q.free
	if i != nilSlot {
		q.free = q.slots[i].next
	} else {
		i = int32(len(q.slots))
		q.slots = append(q.slots, slot{})
	}
	s := &q.slots[i]
	s.call, s.arg = call, arg
	q.n++
	if at == q.last {
		q.insertDue(entry{stamp: stamp, pri: pri, seq: seq, slot: i})
		return
	}
	s.at, s.stamp, s.pri, s.seq = at, stamp, pri, seq
	q.file([]int32{i})
}

// file moves each slot of is, whose deadline is at least last, to the end
// of the due run, leaving the run unsorted, or into its radix bucket. It
// takes a whole chunk so that refill, which moves each event about twice on
// Table 5c, makes one call per chunk rather than one per event: the loop
// body is past the compiler's inlining budget.
func (q *queue) file(is []int32) {
	for _, i := range is {
		s := &q.slots[i]
		at := s.at
		if at == q.last {
			q.due = append(q.due, entry{stamp: s.stamp, pri: s.pri, seq: s.seq, slot: i})
			continue
		}
		// Deadlines are non-negative, so b <= 63; the mask only drops
		// bounds checks.
		b := bits.Len64(uint64(at^q.last)) & 63
		q.mask |= 1 << b
		q.min[b] = min(q.min[b], at)
		p := q.pos[b]
		if p&(chunkLen-1) == 0 { // no chunk yet, or the tail chunk is full
			p = q.grow(b, p)
		}
		q.idx[p] = i
		q.pos[b] = p + 1
	}
}

// grow gives radix bucket b, whose pos is p, an empty tail chunk and
// returns the position of that chunk's first slot index.
func (q *queue) grow(b int, p int32) int32 {
	c := q.freeChunk
	if c != nilSlot {
		q.freeChunk = q.idx[c*chunkLen]
	} else {
		c = int32(len(q.idx) / chunkLen)
		q.idx = append(q.idx, make([]int32, chunkLen)...)
	}
	q.idx[c*chunkLen] = nilSlot
	if p == 0 {
		q.first[b] = c
	} else {
		q.idx[p-chunkLen] = c // link from the full tail chunk
	}
	return c*chunkLen + 1
}

// peek returns the earliest pending deadline without moving last, so the
// engine may still accept events between its clock and that deadline.
func (q *queue) peek() (Time, bool) {
	if q.head < len(q.due) {
		return q.last, true
	}
	if q.mask == 0 {
		return 0, false
	}
	return q.min[bits.TrailingZeros64(q.mask)], true
}

// pop removes the earliest event, which must exist, and returns its
// callback; its deadline is last on return.
func (q *queue) pop() (func(any), any) {
	if q.head == len(q.due) {
		q.refill()
	}
	i := q.due[q.head].slot
	q.head++
	s := &q.slots[i]
	call, arg := s.call, s.arg
	s.call, s.arg = nil, nil // drop references so the GC can reclaim them
	s.next = q.free
	q.free = i
	q.n--
	return call, arg
}

// refill empties the lowest non-empty radix bucket into a new due run and
// the buckets below it, after moving last to that bucket's minimum
// deadline, then sorts the run. The bucket keeps its first chunk; the rest
// of its chain goes back to the free list.
func (q *queue) refill() {
	b := bits.TrailingZeros64(q.mask)
	q.mask &^= 1 << b
	q.last = q.min[b]
	q.min[b] = maxTime
	first, end := q.first[b], q.pos[b]
	q.due = q.due[:0]
	q.head = 0
	for c := first; c != nilSlot; {
		base := c * chunkLen
		lim := base + chunkLen
		if end > base && end < lim {
			lim = end // the tail chunk
		}
		// file may grow idx and move it, but never writes chunk c, which
		// belongs to bucket b, so ch may read it from the old array.
		ch := q.idx[base:lim]
		q.file(ch[1:])
		next := ch[0]
		if c != first {
			q.idx[base] = q.freeChunk
			q.freeChunk = c
		}
		c = next
	}
	q.idx[first*chunkLen] = nilSlot
	q.pos[b] = first*chunkLen + 1
	sortRun(q.due)
}

// sortRun sorts a due run. Runs arrive nearly sorted — on Table 5c one
// adjacent pair in 120 is out of order — so a run already in order is left
// as it is.
func sortRun(r []entry) {
	for j := 1; j < len(r); j++ {
		if r[j].less(&r[j-1]) {
			slices.SortFunc(r, cmpEntry)
			return
		}
	}
}

// insertDue inserts x, due at last, into the undrained part of the run at
// its sorted position. A run at capacity first drops its spent prefix, so
// the run's storage stays bounded by twice its peak undrained length.
func (q *queue) insertDue(x entry) {
	if len(q.due) == cap(q.due) && q.head > 0 {
		n := copy(q.due, q.due[q.head:])
		q.due = q.due[:n]
		q.head = 0
	}
	lo, hi := q.head, len(q.due)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x.less(&q.due[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	q.due = slices.Insert(q.due, lo, x)
}
