package sim

import "math/bits"

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
// every deadline in bucket b+1. Bucket 0 — the events due exactly at last —
// is the binary heap due, ordered by (stamp, pri, seq). When due runs dry,
// the lowest non-empty bucket is emptied: last moves to its minimum
// deadline and each of its events drops into due or a lower bucket. An
// event only ever moves to lower buckets, so each costs amortised
// O(log of its distance from last) moves, independent of queue depth.
type queue struct {
	n     int     // pending events
	last  Time    // deadline of bucket 0; no pending event is earlier
	due   []entry // bucket 0: binary heap of the events at last
	mask  uint64  // bit b set iff radix bucket b is non-empty
	head  [64]int32
	min   [64]Time // minimum deadline of each non-empty bucket
	slots []slot   // slab of every pending event, plus free slots
	free  int32    // head of the free-slot list, nilSlot when empty
}

// nilSlot ends a bucket or free list.
const nilSlot int32 = -1

// slot is one event. next threads the slot through its radix bucket or the
// free list; a slot in due is on neither.
type slot struct {
	at    Time
	stamp Time
	pri   uint64
	seq   uint64
	call  func(any)
	arg   any
	next  int32
}

// entry is a bucket-0 heap entry: the tie-break key beside its slot index,
// so sifting never touches the slab.
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

// reset empties the queue, releasing every event's references and keeping
// the slab's and heap's capacity.
func (q *queue) reset() {
	clear(q.slots)
	q.slots = q.slots[:0]
	q.due = q.due[:0]
	q.free = nilSlot
	q.mask = 0
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
		q.pushDue(entry{stamp: stamp, pri: pri, seq: seq, slot: i})
		return
	}
	s.at, s.stamp, s.pri, s.seq = at, stamp, pri, seq
	q.file(i, at)
}

// file links slot i, with deadline at > last, into its radix bucket.
func (q *queue) file(i int32, at Time) {
	// Deadlines are non-negative, so b <= 63; the mask only drops bounds
	// checks.
	b := bits.Len64(uint64(at^q.last)) & 63
	if q.mask&(1<<b) == 0 {
		q.mask |= 1 << b
		q.min[b] = at
		q.slots[i].next = nilSlot
	} else {
		if at < q.min[b] {
			q.min[b] = at
		}
		q.slots[i].next = q.head[b]
	}
	q.head[b] = i
}

// peek returns the earliest pending deadline without moving last, so the
// engine may still accept events between its clock and that deadline.
func (q *queue) peek() (Time, bool) {
	if len(q.due) > 0 {
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
	if len(q.due) == 0 {
		q.refill()
	}
	i := q.popDue()
	s := &q.slots[i]
	call, arg := s.call, s.arg
	s.call, s.arg = nil, nil // drop references so the GC can reclaim them
	s.next = q.free
	q.free = i
	q.n--
	return call, arg
}

// refill empties the lowest non-empty radix bucket into due and the
// buckets below it, after moving last to that bucket's minimum deadline.
func (q *queue) refill() {
	b := bits.TrailingZeros64(q.mask)
	q.mask &^= 1 << b
	q.last = q.min[b]
	for i := q.head[b]; i != nilSlot; {
		s := &q.slots[i]
		next := s.next
		if s.at == q.last {
			q.pushDue(entry{stamp: s.stamp, pri: s.pri, seq: s.seq, slot: i})
		} else {
			q.file(i, s.at)
		}
		i = next
	}
}

// pushDue inserts x into the bucket-0 heap, sifting a hole up.
func (q *queue) pushDue(x entry) {
	h := append(q.due, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	q.due = h
}

// popDue removes the bucket-0 minimum and returns its slot, sifting a hole
// down from the root.
func (q *queue) popDue() int32 {
	h := q.due
	top := h[0].slot
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].less(&h[c]) {
				c++
			}
			if !h[c].less(&x) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = x
	}
	q.due = h
	return top
}
