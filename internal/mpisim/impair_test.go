package mpisim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func impairedConfig(mode MatchMode, im *netsim.Impairment) Config {
	cfg := DefaultConfig(mode)
	cfg.Impair = im
	return cfg
}

// TestImpairedExchangeCompletes replays an exchange over a lossy network in
// both matching modes. Under impairment every send is forced through the
// rendezvous control loop — eager would be fire-and-forget — so completion
// itself is the evidence that RTS/pull retries recovered the lost packets.
func TestImpairedExchangeCompletes(t *testing.T) {
	im := &netsim.Impairment{Seed: 17, Loss: 0.1, Jitter: sim.Microsecond}
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		for _, size := range []int{1024, 64 * 1024} { // eager-sized and rendezvous-sized
			cfg := impairedConfig(mode, im)
			// Retransmission is message-granularity: a retried 64 KiB pull
			// re-rolls all 16 packets of the data stream, so at loss=0.1 a
			// whole attempt survives only ~0.9^16 ≈ 19% of the time. Budget
			// the retries for the loss rate instead of the default 16.
			cfg.MaxRetries = 64
			e, err := New(cfg, exchange(size, 10*sim.Microsecond, 5))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("mode %v size %d: %v", mode, size, err)
			}
			if res.Messages != 10 {
				t.Fatalf("mode %v size %d: messages = %d", mode, size, res.Messages)
			}
			if !e.C.Faults.Any() {
				t.Fatalf("mode %v size %d: no faults injected at loss=0.1", mode, size)
			}
		}
	}
}

// TestImpairedResetBitIdentical extends the reset-equals-fresh contract to
// impaired replays: the fault schedule is keyed by per-link packet sequence
// numbers that Reset restarts, so a reset engine must replay the identical
// faults and land on the identical Result (retransmit counts included).
func TestImpairedResetBitIdentical(t *testing.T) {
	im := &netsim.Impairment{Seed: 23, Loss: 0.08, Jitter: 500 * sim.Nanosecond}
	progs := exchange(32*1024, 5*sim.Microsecond, 4)
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		e, err := New(impairedConfig(mode, im), progs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		freshFaults := e.C.Faults
		if err := e.Reset(progs, im); err != nil {
			t.Fatal(err)
		}
		reused, err := e.Run()
		if err != nil {
			t.Fatalf("%v: impaired reset replay: %v", mode, err)
		}
		if reused != fresh {
			t.Fatalf("%v: impaired reset diverged:\nfresh  %+v\nreused %+v", mode, fresh, reused)
		}
		if e.C.Faults != freshFaults {
			t.Fatalf("%v: fault schedule diverged: %+v vs %+v", mode, e.C.Faults, freshFaults)
		}
	}
}

// TestImpairedRetransmitsAreCounted pins the Result plumbing: a seed that
// loses control messages must surface nonzero Retransmits.
func TestImpairedRetransmitsAreCounted(t *testing.T) {
	im := &netsim.Impairment{Seed: 2, Loss: 0.25}
	e, err := New(impairedConfig(SpinMatching, im), exchange(16*1024, sim.Microsecond, 6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits == 0 {
		t.Fatal("loss=0.25 replay completed without a single control retransmit")
	}
	if e.C.Faults.Retransmits != res.Retransmits {
		t.Fatalf("cluster counts %d retransmits, Result %d", e.C.Faults.Retransmits, res.Retransmits)
	}
}

// TestImpairedGiveUpSurfacesAsDeadlock takes a link permanently down: the
// pull for data behind it exhausts its retry budget, and the replay reports
// the stuck ranks rather than spinning forever.
func TestImpairedGiveUpSurfacesAsDeadlock(t *testing.T) {
	im := &netsim.Impairment{Blocks: []netsim.LinkBlock{{Src: 0, Dst: 1}}}
	cfg := impairedConfig(SpinMatching, im)
	cfg.RetryTimeout = 5 * sim.Microsecond
	cfg.MaxRetries = 3
	e, err := New(cfg, exchange(1024, sim.Microsecond, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("replay across a dead link should report a deadlock")
	}
	if e.C.Faults.RetransFails == 0 {
		t.Fatal("no retry budget exhaustion recorded")
	}
	if e.C.Faults.Blocked == 0 {
		t.Fatal("no packets blocked on the dead link")
	}
}

// TestLossyResetReclaimsAssemblyRecords replays a lossy exchange, Resets and
// replays again. Loss quarantines messages mid-assembly with their inflight
// record still in the Assembly slot; Reset must hand each such record back
// to its rank's free list, no pooled message may keep a stale slot, and the
// second replay must match a fresh engine bit for bit.
func TestLossyResetReclaimsAssemblyRecords(t *testing.T) {
	im := &netsim.Impairment{Seed: 3, Loss: 0.01}
	progs := exchange(64*1024, 5*sim.Microsecond, 40)
	cfg := impairedConfig(SpinMatching, im)
	cfg.MaxRetries = 64
	e, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// A rank's idle size is every record it owns: those free now plus
	// those stranded on quarantined messages.
	idle := make([]int, e.Ranks())
	for i, r := range e.rank {
		idle[i] = len(r.inflFree)
	}
	var stranded []*netsim.Message
	for _, m := range e.C.Quarantined() {
		if _, ok := m.Assembly.(*inflight); ok {
			idle[m.Dst]++
			stranded = append(stranded, m)
		}
	}
	if len(stranded) == 0 {
		t.Fatal("no message was quarantined mid-assembly: the replay does not exercise reclamation")
	}
	checkIdle := func(when string) {
		t.Helper()
		for i, r := range e.rank {
			if len(r.inflFree) != idle[i] {
				t.Errorf("%s: rank %d holds %d free inflight records, want its idle size %d", when, i, len(r.inflFree), idle[i])
			}
		}
	}

	if err := e.Reset(progs, im); err != nil {
		t.Fatal(err)
	}
	checkIdle("after Reset")
	for _, m := range stranded {
		if m.Assembly != nil {
			t.Fatalf("quarantined message %d still carries an assembly record after Reset", m.ID)
		}
	}
	reused, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reused != want || e.C.Faults != f.C.Faults {
		t.Fatalf("lossy replay after Reset diverged from a fresh engine:\nreset %+v %+v\nfresh %+v %+v", reused, e.C.Faults, want, f.C.Faults)
	}

	if err := e.Reset(progs, im); err != nil {
		t.Fatal(err)
	}
	checkIdle("after the second Reset")
	for n := e.C.PooledMessages(); n > 0; n-- {
		if m := e.C.AllocMessage(); m.Assembly != nil {
			t.Fatalf("pooled message carries a stale assembly slot %v", m.Assembly)
		}
	}
}

// TestResetReimpairEqualsFresh runs one engine through a sequence of fault
// models — plain, seed A, plain, seed B — resetting it onto each, and
// requires every replay to match an engine built fresh with that model:
// the same Result, fault counters and derived retry settings. Reset must
// install the model, re-derive the retry defaults and clear every rank's
// RTO estimator.
func TestResetReimpairEqualsFresh(t *testing.T) {
	progs := exchange(64*1024, 5*sim.Microsecond, 6)
	steps := []*netsim.Impairment{
		nil,
		{Seed: 5, Loss: 0.02, Jitter: 2 * sim.Microsecond},
		nil,
		{Seed: 6, Jitter: 10 * sim.Microsecond},
	}
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		var e *Engine
		for i, im := range steps {
			fresh, err := New(impairedConfig(mode, im), progs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatalf("%v step %d: fresh: %v", mode, i, err)
			}
			if e == nil {
				e = fresh
				continue
			}
			if err := e.Reset(progs, im); err != nil {
				t.Fatal(err)
			}
			if e.Cfg.Impair != im || e.Cfg.RetryTimeout != fresh.Cfg.RetryTimeout || e.Cfg.MaxRetries != fresh.Cfg.MaxRetries {
				t.Fatalf("%v step %d: reset retry settings %v/%d under %v, fresh %v/%d",
					mode, i, e.Cfg.RetryTimeout, e.Cfg.MaxRetries, e.Cfg.Impair, fresh.Cfg.RetryTimeout, fresh.Cfg.MaxRetries)
			}
			got, err := e.Run()
			if err != nil {
				t.Fatalf("%v step %d: reset: %v", mode, i, err)
			}
			if got != want || e.C.Faults != fresh.C.Faults {
				t.Fatalf("%v step %d (%v): reset replay diverged from fresh:\nreset %+v %+v\nfresh %+v %+v",
					mode, i, im, got, e.C.Faults, want, fresh.C.Faults)
			}
			if im != nil && got.Retransmits == 0 && im.Loss > 0 {
				t.Fatalf("%v step %d: lossy replay without a retransmit does not exercise the estimator", mode, i)
			}
		}
	}
}

// TestLostAckResendsRTSOnce drops the NIC's ack of the first RTS copy with
// a link-block window on the return path. The receiver posts its receive
// long after the RTS arrived, so only the ack can stop the sender: it
// resends the RTS exactly once, the receiver's NIC acks the duplicate, and
// the receive matches once. Without acks the sender would resend every
// RTO until the pull arrives.
func TestLostAckResendsRTSOnce(t *testing.T) {
	const size = 64 * 1024
	progs := [][]Op{
		{{Kind: OpIsend, Peer: 1, Tag: 1, Size: size}, {Kind: OpWaitAll}},
		{{Kind: OpCompute, Dur: 200 * sim.Microsecond}, {Kind: OpIrecv, Peer: 0, Tag: 1, Size: size}, {Kind: OpWaitAll}},
	}
	// Rank 1 sends nothing before its receive but the ack of the first
	// RTS, which arrives well inside the window; the duplicate's ack
	// follows one RTO later, after the window.
	im := &netsim.Impairment{Blocks: []netsim.LinkBlock{{Src: 1, Dst: 0, Until: 10 * sim.Microsecond}}}
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		e, err := New(impairedConfig(mode, im), progs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if e.C.Faults.Blocked != 1 {
			t.Fatalf("%v: %d packets blocked, want exactly the first ack", mode, e.C.Faults.Blocked)
		}
		if res.Retransmits != 1 {
			t.Fatalf("%v: %d retransmits, want one RTS resend", mode, res.Retransmits)
		}
		if e.C.Faults.RetransFails != 0 {
			t.Fatalf("%v: %d give-ups", mode, e.C.Faults.RetransFails)
		}
		snd, rcv := e.rank[0], e.rank[1]
		// Karn's rule: the only ack answered a resent RTS, so no sample
		// was taken and the backed-off RTO stands.
		if snd.srtt != 0 || snd.rto != 2*DefaultRetryTimeout {
			t.Fatalf("%v: sender srtt %v rto %v, want no sample and a doubled RTO", mode, snd.srtt, snd.rto)
		}
		// The receiver's pull was answered on its first copy, so its data
		// was a valid sample: the pull round trip less the data's
		// serialization time, well under the initial RTO on an idle path.
		if rcv.srtt <= 0 || rcv.srtt >= DefaultRetryTimeout {
			t.Fatalf("%v: receiver srtt %v, want one pull->data sample under %v", mode, rcv.srtt, DefaultRetryTimeout)
		}
		// A second match would have parked the duplicate on the
		// unexpected queue (or left a posted receive behind).
		if len(rcv.unexpected) != 0 || len(rcv.posted) != 0 || len(rcv.rtsSeen) != 1 {
			t.Fatalf("%v: receiver unexpected=%d posted=%d rtsSeen=%d, want one match",
				mode, len(rcv.unexpected), len(rcv.posted), len(rcv.rtsSeen))
		}
	}
}

// TestRTOEstimator pins the RFC 6298 arithmetic: the first sample sets
// SRTT = R and RTTVAR = R/2, later ones smooth with α = 1/8 and β = 1/4,
// RetryTimeout floors the RTO, each timeout doubles it up to maxBackoff ×
// RetryTimeout, and the next valid sample recomputes it.
func TestRTOEstimator(t *testing.T) {
	const us = sim.Microsecond
	e := &Engine{Cfg: Config{RetryTimeout: 20 * us}}
	r := &rank{eng: e, rto: e.Cfg.RetryTimeout}
	check := func(step string, srtt, rttvar, rto sim.Time) {
		t.Helper()
		if r.srtt != srtt || r.rttvar != rttvar || r.rto != rto {
			t.Fatalf("%s: srtt %v rttvar %v rto %v, want %v %v %v", step, r.srtt, r.rttvar, r.rto, srtt, rttvar, rto)
		}
	}
	r.sampleRTT(8 * us)
	check("first sample", 8*us, 4*us, 24*us)
	r.sampleRTT(8 * us)
	check("steady sample", 8*us, 3*us, 20*us) // 8 + 4·3 = 20: at the floor
	r.sampleRTT(16 * us)
	check("late sample", 9*us, 4250*sim.Nanosecond, 26*us)
	for i := 0; i < 10; i++ {
		r.backoff()
	}
	check("backed off to the cap", 9*us, 4250*sim.Nanosecond, maxBackoff*20*us)
	r.sampleRTT(9 * us)
	check("sample after backoff", 9*us, 3187500*sim.Picosecond, 21750*sim.Nanosecond)
}

// TestHeavyLossKeepsTimersOffTheCap bounds the simulated time of a lossy
// exchange. At loss=0.25 a 16 KiB pull attempt (the pull and four data
// packets) survives only ~24% of the time, so most pulls time out. Those
// timeouts must not back off the rank's RTO: a rank whose pulls kept
// doubling it would sit at the maxBackoff cap, and every later RTS and
// pull of the rank would wait up to maxBackoff × RetryTimeout (1.28 ms).
// Each replay of six 16 KiB rounds must finish within two capped
// timeouts.
func TestHeavyLossKeepsTimersOffTheCap(t *testing.T) {
	limit := 2 * maxBackoff * DefaultRetryTimeout
	for _, seed := range []uint64{1, 2, 3} {
		im := &netsim.Impairment{Seed: seed, Loss: 0.25}
		e, err := New(impairedConfig(SpinMatching, im), exchange(16*1024, sim.Microsecond, 6))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Runtime > limit {
			t.Fatalf("seed %d: lossy exchange took %v of simulated time, want at most %v", seed, res.Runtime, limit)
		}
		for i, r := range e.rank {
			if r.rto >= e.rtoCap() {
				t.Fatalf("seed %d: rank %d ended at the RTO cap %v", seed, i, r.rto)
			}
		}
	}
}

// TestOneWayDelayAdaptsPullTimer streams 20 rendezvous messages one way
// across a path whose round trip is ten times the initial RTO. The
// receiver sends no RTS, so its only RTT samples are its pulls' data, and
// its first pull is resent before that data arrives. Because the data
// names the pull copy it answers, the first copy's round trip still
// counts: the receiver's RTO adapts after the first pull, and the stream
// costs fewer resends than messages. Without the echo (Karn's rule on
// retransmitted exchanges alone) every pull would be resent every RTO
// until its data landed.
func TestOneWayDelayAdaptsPullTimer(t *testing.T) {
	const msgs = 20
	var snd, rcv []Op
	for i := 0; i < msgs; i++ {
		tag := uint64(i + 1)
		snd = append(snd, Op{Kind: OpIsend, Peer: 1, Tag: tag, Size: 64 * 1024}, Op{Kind: OpWaitAll})
		rcv = append(rcv, Op{Kind: OpIrecv, Peer: 0, Tag: tag, Size: 64 * 1024}, Op{Kind: OpWaitAll})
	}
	im := &netsim.Impairment{ExtraLatency: 100 * sim.Microsecond}
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		e, err := New(impairedConfig(mode, im), [][]Op{snd, rcv})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Retransmits >= msgs {
			t.Fatalf("%v: %d retransmits for %d messages on a loss-free path", mode, res.Retransmits, msgs)
		}
		if r := e.rank[1]; r.srtt < 2*im.ExtraLatency || r.rto <= r.srtt {
			t.Fatalf("%v: receiver srtt %v rto %v, want both above the %v round trip", mode, r.srtt, r.rto, 2*im.ExtraLatency)
		}
	}
}
