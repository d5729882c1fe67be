package sim

import "fmt"

// heapEngine is the engine's former event queue — a hand-specialized 4-ary
// min-heap over a flat slice of 64-byte events — kept as the reference the
// radix queue is differentially tested against. It implements the same
// scheduling API and the same (at, stamp, pri, seq) order, so any exact
// priority queue must pop the same sequence.
type heapEngine struct {
	now    Time
	seq    uint64
	events []heapEvent
}

type heapEvent struct {
	at    Time
	stamp Time
	pri   uint64
	seq   uint64
	fn    func()
	call  func(any)
	arg   any
}

func (a *heapEvent) less(b *heapEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.stamp != b.stamp {
		return a.stamp < b.stamp
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

const heapArity = 4

func (e *heapEngine) Reset() {
	for i := range e.events {
		e.events[i] = heapEvent{}
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
}

func (e *heapEngine) Now() Time    { return e.now }
func (e *heapEngine) Pending() int { return len(e.events) }

func (e *heapEngine) push(ev heapEvent) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !h[i].less(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.events = h
}

func (e *heapEngine) pop() heapEvent {
	h := e.events
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = heapEvent{}
	h = h[:n]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if h[j].less(&h[min]) {
				min = j
			}
		}
		if !h[min].less(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.events = h
	return root
}

func (e *heapEngine) checkAt(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
}

func (e *heapEngine) Schedule(at Time, fn func()) {
	e.checkAt(at)
	e.seq++
	e.push(heapEvent{at: at, stamp: e.now, seq: e.seq, fn: fn})
}

func (e *heapEngine) ScheduleCall(at Time, fn func(any), arg any) {
	e.checkAt(at)
	e.seq++
	e.push(heapEvent{at: at, stamp: e.now, seq: e.seq, call: fn, arg: arg})
}

func (e *heapEngine) ReserveSeq(n int) uint64 {
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

func (e *heapEngine) ScheduleCallSeq(at, stamp Time, pri, seq uint64, fn func(any), arg any) {
	e.checkAt(at)
	e.push(heapEvent{at: at, stamp: stamp, pri: pri, seq: seq, call: fn, arg: arg})
}

func (e *heapEngine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

func (e *heapEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	if ev.call != nil {
		ev.call(ev.arg)
	} else {
		ev.fn()
	}
	return true
}

func (e *heapEngine) Run() Time {
	for e.Step() {
	}
	return e.now
}

func (e *heapEngine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *heapEngine) peek() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}
