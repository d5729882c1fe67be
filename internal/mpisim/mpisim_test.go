package mpisim

import (
	"testing"

	"repro/internal/noise"
	"repro/internal/sim"
)

// exchange builds a 2-rank program: both ranks post a receive, send to
// each other, compute, and wait.
func exchange(size int, compute sim.Time, iters int) [][]Op {
	progs := make([][]Op, 2)
	for r := 0; r < 2; r++ {
		peer := 1 - r
		var ops []Op
		for it := 0; it < iters; it++ {
			tag := uint64(it + 1)
			ops = append(ops,
				Op{Kind: OpIrecv, Peer: peer, Tag: tag, Size: size},
				Op{Kind: OpIsend, Peer: peer, Tag: tag, Size: size},
				Op{Kind: OpCompute, Dur: compute},
				Op{Kind: OpWaitAll},
			)
		}
		progs[r] = ops
	}
	return progs
}

func run(t *testing.T, mode MatchMode, progs [][]Op) Result {
	t.Helper()
	e, err := New(DefaultConfig(mode), progs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEagerExchangeCompletes(t *testing.T) {
	res := run(t, HostMatching, exchange(1024, 10*sim.Microsecond, 5))
	if res.Messages != 10 {
		t.Fatalf("messages = %d, want 10 (2 ranks x 5 iterations)", res.Messages)
	}
	if res.Runtime < 50*sim.Microsecond {
		t.Fatalf("runtime %v shorter than compute alone", res.Runtime)
	}
	// Baseline always copies eager data.
	if res.Copies != 10 {
		t.Fatalf("copies = %d, want 10", res.Copies)
	}
}

func TestSpinEagerAvoidsCopies(t *testing.T) {
	res := run(t, SpinMatching, exchange(1024, 10*sim.Microsecond, 5))
	if res.Copies != 0 {
		t.Fatalf("sPIN posted-receive eager path copied %d times", res.Copies)
	}
}

func TestRendezvousExchangeCompletes(t *testing.T) {
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		res := run(t, mode, exchange(64*1024, 10*sim.Microsecond, 3))
		if res.Messages != 6 {
			t.Fatalf("%v: messages = %d, want 6", mode, res.Messages)
		}
	}
}

func TestSpinRendezvousOverlapsCompute(t *testing.T) {
	// With receives pre-posted and a long compute phase, the baseline
	// cannot progress the rendezvous until WaitAll, serializing transfer
	// after compute; sPIN overlaps it. The sPIN runtime must be shorter
	// by roughly the transfer time.
	progs := exchange(256*1024, 200*sim.Microsecond, 4)
	base := run(t, HostMatching, progs)
	spin := run(t, SpinMatching, progs)
	if spin.Runtime >= base.Runtime {
		t.Fatalf("sPIN %v not faster than baseline %v", spin.Runtime, base.Runtime)
	}
	saved := base.Runtime - spin.Runtime
	// 256 KiB at 50 GiB/s is ~5.2 us of transfer per iteration.
	if saved < 10*sim.Microsecond {
		t.Fatalf("saved only %v; expected several us per iteration", saved)
	}
}

func TestUnexpectedMessagesMatchLater(t *testing.T) {
	// Rank 0 sends before rank 1 posts its receive (late recv, case
	// III/IV of Fig. 5b).
	progs := [][]Op{
		{
			{Kind: OpIsend, Peer: 1, Tag: 5, Size: 2048},
			{Kind: OpIsend, Peer: 1, Tag: 6, Size: 32768},
			{Kind: OpWaitAll},
		},
		{
			{Kind: OpCompute, Dur: 50 * sim.Microsecond},
			{Kind: OpIrecv, Peer: 0, Tag: 5, Size: 2048},
			{Kind: OpIrecv, Peer: 0, Tag: 6, Size: 32768},
			{Kind: OpWaitAll},
		},
	}
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		e, err := New(DefaultConfig(mode), progs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Runtime < 50*sim.Microsecond {
			t.Fatalf("%v: runtime %v impossible", mode, res.Runtime)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A receive with no matching send must be reported, not hang.
	progs := [][]Op{
		{{Kind: OpIrecv, Peer: 1, Tag: 1, Size: 8}, {Kind: OpWaitAll}},
		{},
	}
	e, err := New(DefaultConfig(HostMatching), progs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestOverheadFractionBounds(t *testing.T) {
	res := run(t, HostMatching, exchange(16*1024, 20*sim.Microsecond, 10))
	f := res.OverheadFraction(2)
	if f <= 0 || f >= 1 {
		t.Fatalf("overhead fraction %v out of (0,1)", f)
	}
}

// TestResetBitIdenticalToFresh is the engine-level golden check behind the
// replay-reuse contract: an engine that already replayed one program set
// and was Reset for another must produce a Result identical in every field
// — including the processed-event count — to a freshly constructed engine
// replaying the second set. Eager and rendezvous shapes, both protocols.
func TestResetBitIdenticalToFresh(t *testing.T) {
	progsA := exchange(1024, 10*sim.Microsecond, 5)   // eager
	progsB := exchange(64*1024, 5*sim.Microsecond, 4) // rendezvous
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		for _, progs := range [][][]Op{progsA, progsB} {
			fresh := run(t, mode, progs)

			e, err := New(DefaultConfig(mode), progsA)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if err := e.Reset(progs, nil); err != nil {
				t.Fatal(err)
			}
			reused, err := e.Run()
			if err != nil {
				t.Fatalf("%v: reset replay: %v", mode, err)
			}
			if reused != fresh {
				t.Fatalf("%v: reset engine diverged from fresh:\nfresh  %+v\nreused %+v", mode, fresh, reused)
			}
		}
	}
}

// TestResetRejectsMismatchedRankCount pins that an engine cannot be reset
// onto a program set of a different size (the cluster is fixed).
func TestResetRejectsMismatchedRankCount(t *testing.T) {
	e, err := New(DefaultConfig(SpinMatching), exchange(1024, sim.Microsecond, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(make([][]Op, 3), nil); err == nil {
		t.Fatal("Reset accepted 3 programs on a 2-rank engine")
	}
}

// TestNoiseModelBuiltOncePerRank is the regression test for the double
// noise-model construction bug: the compute path used to call Cfg.Noise on
// every OpCompute (building a redundant model mid-replay) in addition to
// the per-rank call in New. The constructor must now run exactly once per
// rank, and the simulated output must be identical to handing every call
// site one shared per-rank model — which is what makes the reuse safe.
func TestNoiseModelBuiltOncePerRank(t *testing.T) {
	progs := exchange(1024, 50*sim.Microsecond, 6) // 6 compute phases per rank

	calls := 0
	cfg := DefaultConfig(HostMatching)
	cfg.Noise = func(rank int) *noise.Model { calls++; return noise.Typical(rank) }
	e, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(progs) {
		t.Fatalf("noise constructor called %d times, want once per rank (%d)", calls, len(progs))
	}

	// Same replay with explicitly shared models: output must be identical.
	models := []*noise.Model{noise.Typical(0), noise.Typical(1)}
	cfg2 := DefaultConfig(HostMatching)
	cfg2.Noise = func(rank int) *noise.Model { return models[rank] }
	e2, err := New(cfg2, progs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res != res2 {
		t.Fatalf("per-rank model reuse changed simulated output:\nfresh-models %+v\nshared       %+v", res, res2)
	}

	// And a Reset replay keeps the models without re-invoking the
	// constructor.
	before := calls
	if err := e.Reset(progs, nil); err != nil {
		t.Fatal(err)
	}
	res3, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Fatalf("Reset re-invoked the noise constructor (%d -> %d calls)", before, calls)
	}
	if res3 != res {
		t.Fatalf("noisy reset replay diverged: %+v vs %+v", res3, res)
	}
}

func TestDeterministicReplay(t *testing.T) {
	progs := exchange(16*1024, 5*sim.Microsecond, 8)
	a := run(t, SpinMatching, progs)
	b := run(t, SpinMatching, progs)
	if a.Runtime != b.Runtime || a.Messages != b.Messages {
		t.Fatalf("nondeterministic replay: %v/%v vs %v/%v", a.Runtime, a.Messages, b.Runtime, b.Messages)
	}
}
