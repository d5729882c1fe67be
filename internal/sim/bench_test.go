package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineSchedule measures the steady-state cost of one
// schedule+dispatch cycle: the dominant per-event overhead of every
// simulation in the repo. The queue is pre-filled so heap operations touch
// realistic depths.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(i%64)+1, fn)
		e.Step()
	}
}

// holdBench is the hold model of event-queue benchmarks, as in perfbench's
// sim.hold_ns.* probes: every dispatched event schedules one successor a
// drawn interval later, so the pending depth stays fixed. group consecutive
// successors share one deadline, forming same-instant groups.
type holdBench struct {
	eng   *Engine
	incs  []Time // pre-drawn intervals, a power-of-two count
	i     int
	group int
	at    Time
}

func holdStep(a any) {
	h := a.(*holdBench)
	if h.i%h.group == 0 {
		h.at = h.eng.Now() + h.incs[(h.i/h.group)&(len(h.incs)-1)]
	}
	h.eng.ScheduleCall(h.at, holdStep, h)
	h.i++
}

// BenchmarkEngineHold measures one ScheduleCall plus Step at steady pending
// depths bracketing Table 5c's mean (~1,230) and peak (~4,640) queue depth,
// with intervals uniform on [1 ps, 2 µs]. The g32 variant schedules in
// 32-event same-instant groups, near Table 5c's measured mean of 33 events
// per instant.
func BenchmarkEngineHold(b *testing.B) {
	for _, c := range []struct {
		name         string
		depth, group int
	}{
		{"d16", 16, 1},
		{"d1024", 1024, 1},
		{"d4096", 4096, 1},
		{"d1024-g32", 1024, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			h := &holdBench{eng: NewEngine(), incs: make([]Time, 1<<14), group: c.group}
			for i := range h.incs {
				h.incs[i] = 1 + Time(rng.Int63n(int64(2*Microsecond)))
			}
			for i := 0; i < c.depth; i++ {
				h.eng.ScheduleCall(Time(rng.Int63n(int64(Microsecond))), holdStep, h)
			}
			for i := 0; i < 4*c.depth; i++ { // settle the queue's shape
				h.eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.eng.Step()
			}
			b.StopTimer()
			if h.eng.Pending() != c.depth {
				b.Fatalf("pending depth %d, want %d", h.eng.Pending(), c.depth)
			}
		})
	}
}

// BenchmarkPoolAcquire measures the earliest-server scan of Pool, which runs
// once per handler invocation (HPU context admission) and once per posted
// message (host-core selection).
func BenchmarkPoolAcquire(b *testing.B) {
	p := NewPool("bench", 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AcquireAny(Time(i), 10)
	}
}

// BenchmarkIntervalPoolCharge measures one AcquireAny on the HPU issue
// pool in Fig. 7a's shape: 4 servers of about 2.3k spans each, requests
// landing within 80 spans of the tail, and server 0 free at earliest for
// three requests in four (the early stop). The fourth lands inside a
// server-0 span, so every server is placed. The lists are restored from a
// template every 128 requests, off the clock, so holes never run out; ns/op
// is per AcquireAny.
func BenchmarkIntervalPoolCharge(b *testing.B) {
	const k, spans, period, reach, batch = 4, 2300, 20, 80, 128
	p := NewIntervalPool("hpu", k)
	// Server s holds [i*period+3s, i*period+3s+12): 8-wide holes, staggered
	// so a time inside a server-0 span is busy on the others too.
	for s := 0; s < k; s++ {
		for i := 0; i < spans; i++ {
			p.Server(s).Acquire(Time(i*period+3*s), 12)
		}
	}
	tmpl := make([]Intervals, k)
	for s := range tmpl {
		tmpl[s] = *p.Server(s)
		tmpl[s].busy = append([]ivSpan(nil), tmpl[s].busy...)
	}
	// One batch of requests. Each takes one unit from a server-0 hole, and
	// no hole gets more than two, so server 0 always wins and a request
	// aimed at a hole finds it free at exactly earliest.
	rng := rand.New(rand.NewSource(1))
	earliest := make([]Time, batch)
	var fill [reach]Time
	for j := range earliest {
		r := (j * 37) % reach
		base := Time((spans - 1 - r) * period)
		if rng.Intn(4) == 0 {
			earliest[j] = base + 5 // inside server 0's span
		} else {
			earliest[j] = base + 12 + fill[r] // server 0's hole
		}
		fill[r]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		j := n % batch
		if j == 0 && n > 0 {
			b.StopTimer()
			for s, sv := range p.servers {
				busy := append(sv.busy[:0], tmpl[s].busy...)
				*sv = tmpl[s]
				sv.busy = busy
			}
			b.StartTimer()
		}
		p.AcquireAny(earliest[j], 1)
	}
}
