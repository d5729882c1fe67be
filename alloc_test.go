// Allocation-budget regression gates for the hot paths tracked in
// BENCH_core.json. The budgets are deliberately looser than the measured
// numbers (they are ceilings, not targets) so routine noise never trips
// them, but a regression that reintroduces per-event or per-replay
// allocation — a closure on the schedule path, a lost free list, a cache
// bypass — fails here before it can land. scripts/check.sh (and therefore
// CI's `make check`) runs this test on every merge.
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/sim"
)

// Budgets, mirroring BENCH_core.json:
//
//   - engineScheduleBudget: the per-event path has been allocation-free
//     since PR 1 (BenchmarkEngineSchedule 0 allocs/op).
//   - clusterSendLargeBudget: BenchmarkClusterSendLarge measures 7
//     allocs per 256-packet message on a cold cluster; steady state on a
//     warm cluster is lower still.
//   - table5cBudget: one Table 5c regeneration at benchScale. PR 2
//     measured 6,539,299 allocs; the PR-3 replay-engine reuse brought it to
//     ~439k, and the PR-5 pooled program sets plus the allocation-free
//     neighbor arithmetic to ~74k. The 150k budget admits drift — any
//     return toward per-replay program construction fails the gate.
//   - spcBudget: one full SPC trace-study regeneration (five traces, both
//     NIC types, both protocols). PR 3 measured ~155k allocs, dominated by
//     per-request portals work; the PR-4 portals-layer pooling (message
//     free list, pooled pendingOps/contexts, closure-free EQ/CT dispatch)
//     brings it to ~2.9k. The 15k budget is a 10x regression gate that
//     still sits 10x below the pre-pooling regime.
//   - fig5aBudget: one Fig 5a regeneration at benchScale. ~321k before
//     PR 5; pooled triggered-op records, the closure-free MEContext owner
//     dispatch, NI-pooled EQs/CTs/PT entries, and the Env arenas for
//     matching entries, child lists, and deposit regions bring it to
//     ~108k. The 120k budget fails if any of those pools is lost.
//   - fig5aBytesBudget: bytes allocated by one Fig 5a regeneration at
//     benchScale. The sPIN columns used to carve a distinct 64 KiB deposit
//     region per rank (1023 of them at 1024 procs) from an arena regrown
//     by doubling: ~153 MB/op. The ranks now share one timing-only sink
//     region (bench.Env.sinkMem), which brings it to ~19 MB/op. The
//     48 MiB budget fails if per-rank regions come back.
//   - retransSteadyStateBudget: the reliable-put retransmit loop — record,
//     per-attempt message, timer event, ack, and the lost messages
//     themselves — runs entirely on NI/cluster/engine free lists, so after
//     warmup a put that is lost and retransmitted costs zero allocations.
const (
	engineScheduleBudget     = 0
	clusterSendLargeBudget   = 7
	table5cBudget            = 150_000
	spcBudget                = 15_000
	fig5aBudget              = 120_000
	fig5aBytesBudget         = 48 << 20
	retransSteadyStateBudget = 0
)

func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets gated in the non-race job")
	}
	if testing.Short() {
		t.Skip("alloc budgets regenerate Table 5c; skipped in -short")
	}

	t.Run("EngineSchedule", func(t *testing.T) {
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < 1024; i++ {
			e.Schedule(sim.Time(i), fn)
		}
		i := 0
		got := testing.AllocsPerRun(1000, func() {
			e.Schedule(e.Now()+sim.Time(i%64)+1, fn)
			e.Step()
			i++
		})
		if got > engineScheduleBudget {
			t.Errorf("schedule+dispatch = %.1f allocs/op, budget %d", got, engineScheduleBudget)
		}
	})

	t.Run("ClusterSendLarge", func(t *testing.T) {
		p := netsim.Integrated()
		const size = 1 << 20
		c, err := netsim.NewCluster(2, p)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			c.Send(c.Eng.Now(), &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: size})
			c.Eng.Run()
		})
		if got > clusterSendLargeBudget {
			t.Errorf("1 MiB send = %.1f allocs/op, budget %d", got, clusterSendLargeBudget)
		}
	})

	t.Run("RetransSteadyState", func(t *testing.T) {
		p := netsim.Integrated()
		c, err := netsim.NewCluster(2, p)
		if err != nil {
			t.Fatal(err)
		}
		// Every second packet on each link dies, so half the puts are
		// retransmitted and half the acks are lost (forcing duplicate
		// deposits) — the full recovery machinery runs on every iteration.
		c.SetImpairment(&netsim.Impairment{LossEveryN: 2})
		nis := portals.Setup(c)
		if _, err := nis[1].PTAlloc(0, nil); err != nil {
			t.Fatal(err)
		}
		if err := nis[1].MEAppend(0, &portals.ME{Start: make([]byte, 8), MatchBits: 0x11}, portals.PriorityList); err != nil {
			t.Fatal(err)
		}
		nis[0].ConfigureRetrans(portals.RetransConfig{Timeout: 10 * sim.Microsecond})
		put := func() {
			if _, err := nis[0].ReliablePut(c.Eng.Now(), portals.PutArgs{
				NoData: true, Length: 8, Target: 1, PTIndex: 0, MatchBits: 0x11,
			}); err != nil {
				t.Fatal(err)
			}
			c.Eng.Run()
		}
		for i := 0; i < 64; i++ { // fill the record/message/event pools
			put()
		}
		if got := testing.AllocsPerRun(200, put); got > retransSteadyStateBudget {
			t.Errorf("lossy reliable put = %.1f allocs/op, budget %d", got, retransSteadyStateBudget)
		}
	})

	t.Run("Table5c", func(t *testing.T) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.Table5c(benchScale); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocsPerOp(); got > table5cBudget {
			t.Errorf("Table5c regeneration = %d allocs/op, budget %d", got, table5cBudget)
		}
	})

	t.Run("Fig5a", func(t *testing.T) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.Fig5a(benchScale); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocsPerOp(); got > fig5aBudget {
			t.Errorf("Fig5a regeneration = %d allocs/op, budget %d", got, fig5aBudget)
		}
		if got := res.AllocedBytesPerOp(); got > fig5aBytesBudget {
			t.Errorf("Fig5a regeneration = %d B/op, budget %d", got, fig5aBytesBudget)
		}
	})

	t.Run("SPC", func(t *testing.T) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.SPCTraces(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocsPerOp(); got > spcBudget {
			t.Errorf("SPC regeneration = %d allocs/op, budget %d", got, spcBudget)
		}
	})
}
