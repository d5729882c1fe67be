package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/spin"
)

// Layer probes time calls into one layer's public functions from outside,
// with nothing else running. Each probe repeats a batch of operations and
// reports the median batch's host ns per operation.

// probeBatches is how many timed batches each probe takes the median of.
const probeBatches = 7

// perOp times probeBatches batches of ops calls to op and returns the
// median host ns per call.
func perOp(ops int, op func()) float64 {
	xs := make([]float64, probeBatches)
	for b := range xs {
		sw := start()
		for i := 0; i < ops; i++ {
			op()
		}
		xs[b] = float64(sw.elapsed().Nanoseconds()) / float64(ops)
	}
	return summarize(xs).median
}

// holdProbe keeps an engine's pending-event count steady: every dispatched
// event schedules one successor a drawn interval later (the classic hold
// model of event-queue benchmarks).
type holdProbe struct {
	eng  *sim.Engine
	incs []sim.Time // pre-drawn intervals, a power-of-two count
	i    int
}

func holdStep(a any) {
	h := a.(*holdProbe)
	h.eng.ScheduleCall(h.eng.Now()+h.incs[h.i&(len(h.incs)-1)], holdStep, h)
	h.i++
}

// probeHold returns the host ns of one ScheduleCall plus Step at a steady
// pending depth. Intervals are uniform on [1, 2 µs].
func probeHold(depth int, rng *rand.Rand) (float64, error) {
	const meanInc = sim.Microsecond
	h := &holdProbe{eng: sim.NewEngine(), incs: make([]sim.Time, 1<<14)}
	for i := range h.incs {
		h.incs[i] = 1 + sim.Time(rng.Int63n(int64(2*meanInc)))
	}
	for i := 0; i < depth; i++ {
		h.eng.ScheduleCall(sim.Time(rng.Int63n(int64(meanInc))), holdStep, h)
	}
	for i := 0; i < 4*depth; i++ { // settle the queue's shape before timing
		h.eng.Step()
	}
	ns := perOp(100_000, func() { h.eng.Step() })
	if h.eng.Pending() != depth {
		return 0, fmt.Errorf("hold probe: pending depth %d, want %d", h.eng.Pending(), depth)
	}
	return ns, nil
}

// sink consumes packets without doing any work, so the transport probe
// times the transport alone.
type sink struct{ pkts int }

func (s *sink) ReceivePacket(now sim.Time, pkt *netsim.Packet) { s.pkts++ }

// probeTransport returns host ns per packet of a 1 MiB put (256 MTU
// packets) and host ns per 8-byte message on a 2-node cluster, each run to
// completion.
func probeTransport() (perPacket, perSmall float64, err error) {
	p := netsim.Integrated()
	c, err := netsim.NewCluster(2, p)
	if err != nil {
		return 0, 0, err
	}
	rx := &sink{}
	c.Nodes[1].Recv = rx
	send := func(size int) {
		m := c.AllocMessage()
		m.Type, m.Src, m.Dst, m.Length = netsim.OpPut, 0, 1, size
		c.Send(c.Eng.Now(), m)
		for c.Eng.Step() {
		}
	}
	const large = 1 << 20
	send(large) // warm the free lists
	rx.pkts = 0
	perMsg := perOp(40, func() { send(large) })
	if want := probeBatches * 40 * p.Packets(large); rx.pkts != want {
		return 0, 0, fmt.Errorf("transport probe: %d packets delivered, want %d", rx.pkts, want)
	}
	perSmall = perOp(20_000, func() { send(8) })
	return perMsg / float64(p.Packets(large)), perSmall, nil
}

// putProbe is a two-node spin cluster whose target holds two persistent
// matching entries on portal 0: a plain one and one carrying header,
// payload and completion handlers.
type putProbe struct {
	cl  *spin.Cluster
	md  *spin.MD
	rt  func() uint64 // handler invocations on the target so far
	err error
}

const (
	plainBits   = 1
	handledBits = 2
)

func newPutProbe() (*putProbe, error) {
	cl, err := spin.NewCluster(2, spin.IntegratedNIC())
	if err != nil {
		return nil, err
	}
	tgt := cl.NI(1)
	if _, err := tgt.PTAlloc(0, nil); err != nil {
		return nil, err
	}
	plain := &spin.ME{Start: make([]byte, 64<<10), MatchBits: plainBits, MatchSource: -1}
	handled := &spin.ME{Start: make([]byte, 64<<10), MatchBits: handledBits, MatchSource: -1,
		Handlers: spin.HandlerSet{
			Header:     func(*spin.Ctx, spin.Header) spin.HeaderRC { return spin.ProcessData },
			Payload:    func(*spin.Ctx, spin.Payload) spin.PayloadRC { return spin.PayloadSuccess },
			Completion: func(*spin.Ctx, int, bool) spin.CompletionRC { return spin.CompletionSuccess },
		}}
	for _, me := range []*spin.ME{plain, handled} {
		if err := tgt.MEAppend(0, me, spin.PriorityList); err != nil {
			return nil, err
		}
	}
	org := cl.NI(0)
	return &putProbe{
		cl: cl,
		md: org.MDBind(make([]byte, 64<<10), nil, nil),
		rt: func() uint64 { return tgt.RT.HandlerInvocations },
	}, nil
}

// put sends one put of size bytes matching bits and runs it to completion.
func (p *putProbe) put(bits uint64, size int) {
	if _, err := p.cl.NI(0).Put(p.cl.Now(), spin.PutArgs{
		MD: p.md, Length: size, Target: 1, PTIndex: 0, MatchBits: bits,
	}); err != nil && p.err == nil {
		p.err = err
	}
	p.cl.Run()
}

// probePuts returns, for one put size, host ns per plain put through the
// Portals NI, and the extra host ns per handler invocation when the entry
// carries sPIN handlers.
func (p *putProbe) probePuts(size, ops int) (plainNS, perHandlerNS float64, err error) {
	p.put(plainBits, size)
	p.put(handledBits, size)
	plainNS = perOp(ops, func() { p.put(plainBits, size) })
	before := p.rt()
	handledNS := perOp(ops, func() { p.put(handledBits, size) })
	calls := float64(p.rt()-before) / float64(probeBatches*ops)
	if p.err != nil {
		return 0, 0, fmt.Errorf("put probe: %w", p.err)
	}
	if calls == 0 {
		return 0, 0, fmt.Errorf("put probe: no handler ran")
	}
	return plainNS, (handledNS - plainNS) / calls, nil
}

// probeServeWarm returns the host µs of one ServeHTTP call answering a
// cached request, in process, with no TCP involved.
func probeServeWarm() (float64, error) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	const body = `{"experiment":"fig3b","scale":4}`
	do := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK {
		return 0, fmt.Errorf("serve probe: warming request answered %d: %s", rec.Code, rec.Body)
	}
	const ops = 2000
	xs := make([]float64, probeBatches)
	for b := range xs {
		reqs := make([]*http.Request, ops)
		recs := make([]*httptest.ResponseRecorder, ops)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body))
			recs[i] = httptest.NewRecorder()
		}
		sw := start()
		for i := range reqs {
			srv.ServeHTTP(recs[i], reqs[i])
		}
		xs[b] = float64(sw.elapsed().Nanoseconds()) / ops / 1e3
		for _, r := range recs {
			if r.Code != http.StatusOK || r.Header().Get("X-Cache") != "hit" {
				return 0, fmt.Errorf("serve probe: warm request answered %d (X-Cache %q)", r.Code, r.Header().Get("X-Cache"))
			}
		}
	}
	return summarize(xs).median, nil
}
