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
		if err := e.Reset(progs); err != nil {
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
