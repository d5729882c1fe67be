// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds, which represents the paper's
// finest-grained parameter (G in ps/Byte) exactly and spans roughly 106 days
// in an int64 — far beyond any simulated run. Events fire in the strict
// total order (at, stamp, pri, seq): deadline, then the clock when the
// event's sequence number was allocated, then a caller-supplied priority
// key (0 unless set through ScheduleCallSeq), then a per-engine sequence
// number. Sequence numbers are unique, so the order has no ties and
// simulations are bit-reproducible across runs; for plain Schedule and
// ScheduleCall events at one instant it reduces to scheduling order.
//
// stamp and pri are the tie-break between netsim's packet walks and plain
// events that share a deadline. Among events whose sequence numbers were
// allocated at the same instant, plain events (pri 0) run first and packet
// walks follow in (source send count, source rank) order; stamp confines
// that reordering to one instant, so earlier-scheduled events still run
// first. Both keys shape printed output: Table 5c at scale 4 changes with
// (at, seq) under loss=0.002,seed=11 (the MILC, coMD and Cloverleaf rows)
// and with (at, pri, seq) even unimpaired (the coMD-360 row).
//
// The event queue is a monotone radix queue (Ahuja, Mehlhorn, Orlin &
// Tarjan, JACM 1990) keyed on the deadline relative to the last dispatched
// one, which simulated time makes legal: no event is scheduled before the
// clock. Events live in one engine-owned slot slab; radix buckets and the
// free list are intrusive lists through it, and the events due at the
// current deadline sit in a small binary heap ordered by (stamp, pri, seq).
// Popped slots are recycled, so steady-state scheduling allocates nothing.
// Hot callers that would otherwise allocate a fresh closure per event can
// use ScheduleCall, which carries a pre-bound (func(any), arg) pair instead,
// and ReserveSeq/ScheduleCallSeq, which let a caller claim a block of
// sequence numbers up front so deferred scheduling preserves the exact
// tie-break order of eager scheduling.
package sim

import "fmt"

// Time is a simulated instant or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a float64 number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Engine is a discrete-event simulation engine. The zero value is not ready
// for use; create engines with NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	processed uint64
	q         queue
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{q: queue{free: nilSlot}} }

// Reset returns the engine to its post-construction state: clock at zero,
// sequence counter at zero, empty queue. The slot slab and bucket-0 heap
// keep their capacity, so a reset engine schedules without allocating;
// any still-queued events are dropped (their callbacks never run) and
// their references released. Reset is the engine-level half of the
// cluster-reuse contract: a reset engine is indistinguishable from a fresh
// one to the simulation, because the dispatch order is the strict total
// order (at, stamp, pri, seq) and every input to it — the clock that
// supplies stamps and the counter that supplies seqs — restarts
// identically.
func (e *Engine) Reset() {
	e.q.reset()
	e.now = 0
	e.seq = 0
	e.processed = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.q.n }

// checkAt panics on scheduling in the past: it indicates a model bug
// (causality violation), and silently clamping would hide it.
func (e *Engine) checkAt(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
}

// Schedule runs fn at absolute time at. The closure rides in the event's
// argument behind a static trampoline, so both scheduling forms share one
// event shape (a func value is pointer-shaped: storing it in an interface
// does not allocate).
func (e *Engine) Schedule(at Time, fn func()) {
	e.checkAt(at)
	e.seq++
	e.q.push(at, e.now, 0, e.seq, callClosure, fn)
}

// callClosure is the trampoline behind Schedule and After.
func callClosure(fn any) { fn.(func())() }

// ScheduleCall runs fn(arg) at absolute time at. Unlike Schedule, the
// callback and its argument are stored directly in the event, so callers
// that reuse a non-capturing fn (and a pooled or pointer-typed arg) schedule
// without allocating a closure.
func (e *Engine) ScheduleCall(at Time, fn func(any), arg any) {
	e.checkAt(at)
	e.seq++
	e.q.push(at, e.now, 0, e.seq, fn, arg)
}

// ReserveSeq claims n consecutive sequence numbers and returns the first.
// A caller that will schedule n related events lazily (e.g. one packet
// arrival at a time) reserves their tie-break positions up front, so the
// eventual ScheduleCallSeq calls fire in exactly the order they would have
// had they all been scheduled eagerly at reservation time. The caller must
// also capture Now() at reservation time and pass it as the stamp of every
// deferred ScheduleCallSeq, preserving the eager order under the
// (at, stamp, pri, seq) order.
func (e *Engine) ReserveSeq(n int) uint64 {
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// ScheduleCallSeq is ScheduleCall with an explicit sequence number obtained
// from ReserveSeq, the engine clock captured at reservation time as the
// tie-break stamp, and a caller-supplied priority key ordered between the
// stamp and the sequence number. Among events stamped at the same instant
// and due together, a lower pri runs first; pri 0 keeps scheduling order
// (netsim's packet walks pass a per-source send key, see the package doc).
// Reusing a sequence number, inventing one, or passing a stamp other than
// the reservation-time clock breaks the engine's determinism contract.
func (e *Engine) ScheduleCallSeq(at, stamp Time, pri, seq uint64, fn func(any), arg any) {
	e.checkAt(at)
	e.q.push(at, stamp, pri, seq, fn, arg)
}

// After runs fn d picoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if e.q.n == 0 {
		return false
	}
	call, arg := e.q.pop()
	e.now = e.q.last
	e.processed++
	call(arg)
	return true
}

// Run executes events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with deadlines <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for next, ok := e.q.peek(); ok && next <= t; next, ok = e.q.peek() {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
