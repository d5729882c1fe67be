package sim

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// engineAPI is the scheduling surface shared by Engine and the 4-ary heap
// reference (heapref_test.go), so one op script can drive both.
type engineAPI interface {
	Now() Time
	Pending() int
	Schedule(at Time, fn func())
	After(d Time, fn func())
	ScheduleCall(at Time, fn func(any), arg any)
	ReserveSeq(n int) uint64
	ScheduleCallSeq(at, stamp Time, pri, seq uint64, fn func(any), arg any)
	Step() bool
	Run() Time
	RunUntil(t Time)
	peek() (Time, bool)
	Reset()
}

// peek exposes the queue's next deadline to the op scripts.
func (e *Engine) peek() (Time, bool) { return e.q.peek() }

// obs is one observation of an engine under a script: an event firing
// (id >= 0) or the engine state after an op (id < 0).
type obs struct {
	at      Time
	id      int
	pending int
	next    Time
	hasNext bool
}

// reservation is a block of sequence numbers claimed by ReserveSeq, with
// the reservation-time clock every deferred event must carry as its stamp.
type reservation struct {
	base  uint64
	n     int
	used  int
	stamp Time
	pri   uint64
}

// player plays an op script against one engine. Event ids number
// scheduled events in script order, so two engines that pop the same
// (at, seq) sequence produce the same log.
type player struct {
	e      engineAPI
	script []byte
	pos    int
	ids    int
	res    []reservation
	log    []obs
	// afterOp, if set, runs after every op (coverage probes).
	afterOp func()
	// resetsPending counts Resets that dropped pending events.
	resetsPending int
}

// callArg is the pointer-shaped argument of ScheduleCall events.
type callArg struct {
	d  *player
	id int
}

func fireCall(a any) {
	c := a.(*callArg)
	c.d.fire(c.id)
}

func (d *player) byte() byte {
	if d.pos >= len(d.script) {
		return 0
	}
	b := d.script[d.pos]
	d.pos++
	return b
}

// delay decodes one byte into a non-negative interval: same-instant,
// picoseconds, nanoseconds, or a power of two from 1 ps up to 2^62 ps, so
// every radix bucket is reachable.
func delay(b byte) Time {
	low := Time(b & 63)
	switch b >> 6 {
	case 0:
		return 0
	case 1:
		return 1 + low
	case 2:
		return 1 + low*Nanosecond
	default:
		return Time(1) << (low % 63)
	}
}

// at returns now+d, saturating at the largest Time.
func (d *player) at(dt Time) Time {
	now := d.e.Now()
	if dt > math.MaxInt64-now {
		return math.MaxInt64
	}
	return now + dt
}

// fire records an event; every fourth one schedules a zero-delay child
// from inside its callback (children spawn nothing).
func (d *player) fire(id int) {
	d.log = append(d.log, obs{at: d.e.Now(), id: id})
	if id%4 != 0 || id < 0 {
		return
	}
	if id%8 == 0 {
		d.e.After(0, func() { d.fire(-id - 1) })
	} else {
		d.e.ScheduleCall(d.e.Now(), fireCall, &callArg{d, -id - 1})
	}
}

// schedule queues a fresh event at t, by closure or pre-bound call.
func (d *player) schedule(t Time, closure bool) {
	id := d.ids
	d.ids++
	if closure {
		d.e.Schedule(t, func() { d.fire(id) })
	} else {
		d.e.ScheduleCall(t, fireCall, &callArg{d, id})
	}
}

// claim schedules the next unused sequence number of reservation r at t.
func (d *player) claim(r int, t Time) {
	v := &d.res[r]
	id := d.ids
	d.ids++
	d.e.ScheduleCallSeq(t, v.stamp, v.pri, v.base+uint64(v.used), fireCall, &callArg{d, id})
	v.used++
	if v.used == v.n {
		d.res = append(d.res[:r], d.res[r+1:]...)
	}
}

// fillGap schedules events between the clock and the next pending
// deadline: after a RunUntil or runBefore stop, a queue whose peek moved
// its internal base past the clock would misfile them.
func (d *player) fillGap() {
	next, ok := d.e.peek()
	now := d.e.Now()
	if !ok || next <= now {
		return
	}
	d.schedule(now, true)
	d.schedule(now+(next-now)/2, false)
	if len(d.res) > 0 {
		d.claim(0, next-1)
	}
}

// runBefore steps every event due strictly before bound and leaves the
// clock at the last one run, unlike RunUntil, so a later op may schedule
// anywhere between that clock and the next deadline.
func (d *player) runBefore(bound Time) {
	for next, ok := d.e.peek(); ok && next < bound; next, ok = d.e.peek() {
		d.e.Step()
	}
}

func (d *player) observe() {
	next, ok := d.e.peek()
	d.log = append(d.log, obs{at: d.e.Now(), id: -1 << 62, pending: d.e.Pending(), next: next, hasNext: ok})
}

// run interprets the whole script, drains the engine and returns the log.
func (d *player) run() []obs {
	for d.pos < len(d.script) {
		switch d.byte() % 10 {
		case 0:
			d.schedule(d.at(delay(d.byte())), true)
		case 1:
			d.schedule(d.at(delay(d.byte())), false)
		case 2: // same-instant burst of 1–200 events, mixed forms
			n := 1 + int(d.byte())%200
			t := d.at(delay(d.byte()))
			for i := 0; i < n; i++ {
				if i%5 == 4 && len(d.res) > 0 {
					d.claim(len(d.res)-1, t)
				} else {
					d.schedule(t, i%2 == 0)
				}
			}
		case 3:
			n := 1 + int(d.byte())%8
			pri := uint64(d.byte() % 4)
			d.res = append(d.res, reservation{base: d.e.ReserveSeq(n), n: n, stamp: d.e.Now(), pri: pri})
		case 4:
			if len(d.res) > 0 {
				r := int(d.byte()) % len(d.res)
				d.claim(r, d.at(delay(d.byte())))
			}
		case 5:
			for k := 1 + int(d.byte())%16; k > 0 && d.e.Step(); k-- {
			}
		case 6:
			d.e.RunUntil(d.at(delay(d.byte())))
			d.fillGap()
		case 7:
			d.runBefore(d.at(delay(d.byte())))
			d.fillGap()
		case 8:
			if d.byte()%8 == 0 {
				if d.e.Pending() > 0 {
					d.resetsPending++
				}
				d.e.Reset()
				d.res = d.res[:0]
			} else {
				d.e.Step()
			}
		case 9:
			d.observe()
		}
		d.observe()
		if d.afterOp != nil {
			d.afterOp()
		}
	}
	d.e.Run()
	d.observe()
	return d.log
}

// queueProbe records which queue paths an op script reached, so the tests
// can require that their scripts exercise what they claim to.
type queueProbe struct {
	buckets    uint64 // union of the radix bucket masks seen
	maxRun     int    // longest undrained due run seen after an op
	midInserts int    // pushes at the run's deadline that landed before its tail
	reused     int    // Resets whose chunk storage served the next pushes
	resets     int    // Resets with events pending, as of the last op
	resetBase  *int32 // chunk storage kept by the last such Reset
}

// afterOp inspects the engine after every op of the script.
func (p *queueProbe) afterOp(e *Engine, d *player) {
	q := &e.q
	p.buckets |= q.mask
	p.maxRun = max(p.maxRun, len(q.due)-q.head)
	if d.resetsPending != p.resets {
		p.resets = d.resetsPending
		p.resetBase = nil
		if cap(q.idx) > 0 {
			p.resetBase = &q.idx[:1][0]
		}
	} else if p.resetBase != nil && len(q.idx) > 0 {
		if &q.idx[0] == p.resetBase {
			p.reused++
		}
		p.resetBase = nil
	}
}

// probedEngine is an Engine whose ScheduleCallSeq reports to its probe when
// a push at the due run's deadline lands before the run's tail: the
// sorted-insert path, reached by a reserved sequence number whose older
// stamp or lower priority orders it ahead of events already due.
type probedEngine struct {
	*Engine
	p *queueProbe
}

func (e probedEngine) ScheduleCallSeq(at, stamp Time, pri, seq uint64, fn func(any), arg any) {
	e.Engine.ScheduleCallSeq(at, stamp, pri, seq, fn, arg)
	if q := &e.q; at == q.last && q.due[len(q.due)-1].seq != seq {
		e.p.midInserts++
	}
}

// compareScript runs script on a fresh Engine and on the 4-ary heap
// reference and fails at the first difference in their logs. A non-nil
// probe watches the Engine.
func compareScript(t *testing.T, script []byte, probe *queueProbe) *player {
	t.Helper()
	eng := NewEngine()
	got := &player{e: eng, script: script}
	if probe != nil {
		got.e = probedEngine{eng, probe}
		got.afterOp = func() { probe.afterOp(eng, got) }
	}
	want := &player{e: &heapEngine{}, script: script}
	gl, wl := got.run(), want.run()
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("script %x: observation %d differs: radix %+v, heap %+v", script, i, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("script %x: %d observations on the radix queue, %d on the heap", script, len(gl), len(wl))
	}
	return got
}

// TestRadixQueueMatchesHeapReference drives the radix queue and the former
// 4-ary heap with the same randomized op scripts — closure, pre-bound and
// reserved-sequence scheduling with non-zero priorities, same-instant
// bursts, zero-delay scheduling from callbacks, deadlines up to 2^62 ps,
// RunUntil and runBefore stops followed by scheduling below the next
// deadline, and Resets with events pending — and requires identical pop
// sequences.
func TestRadixQueueMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p queueProbe
	resets, events := 0, 0
	for i := 0; i < 200; i++ {
		script := make([]byte, 1+rng.Intn(1000))
		rng.Read(script)
		p.resets, p.resetBase = 0, nil
		d := compareScript(t, script, &p)
		resets += d.resetsPending
		events += d.ids
	}
	// The scripts must have exercised what they claim to.
	if p.buckets&(1<<63) == 0 {
		t.Errorf("top radix bucket never used (mask union %#x)", p.buckets)
	}
	if p.maxRun < 100 {
		t.Errorf("longest due run held %d events, want >= 100", p.maxRun)
	}
	if p.midInserts == 0 {
		t.Error("no push at the due run's deadline landed before the run's tail")
	}
	if resets == 0 {
		t.Error("no Reset dropped pending events")
	}
	if p.reused == 0 {
		t.Error("no Reset's chunk storage was reused")
	}
	t.Logf("%d events scheduled, %d resets with events pending, %d reused their chunk storage; longest due run %d, %d sorted inserts",
		events, resets, p.reused, p.maxRun, p.midInserts)
}

// FuzzEngineOrder decodes its input into an op script (see player.run) and
// requires the radix queue to pop exactly the 4-ary heap reference's
// sequence.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{2, 10, 0, 5, 3})
	f.Add([]byte{3, 4, 2, 0, 255, 4, 0, 200, 2, 40, 65, 6, 255, 7, 130, 5, 15})
	f.Add([]byte{0, 255, 1, 254, 2, 199, 1, 8, 8, 0, 3, 7, 1, 2, 150, 0})
	f.Add([]byte("radix queue order"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		compareScript(t, script, nil)
	})
}

// TestEngineOrderCorpusReachesSortedInsert requires every seed in
// testdata/fuzz/FuzzEngineOrder to reach the due run's sorted-insert path,
// so the short fuzz smoke exercises it whatever the fuzzer's budget.
func TestEngineOrderCorpusReachesSortedInsert(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEngineOrder", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzEngineOrder seed corpus (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a version line and one []byte("...") literal.
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		script, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte seed: %v", f, err)
		}
		var p queueProbe
		compareScript(t, []byte(script), &p)
		if p.midInserts == 0 {
			t.Errorf("%s: no push at the due run's deadline landed before its tail", f)
		}
	}
}
