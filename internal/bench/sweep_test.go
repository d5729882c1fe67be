package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/sim"
)

func tableCSV(t *Table) string {
	var sb strings.Builder
	t.CSV(&sb)
	return sb.String()
}

func buildExperiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("experiment %q not registered", id)
	return Experiment{}
}

// TestSweepResetAndParallelDeterminism is the golden equality check behind
// the reuse and parallelism contracts: for each listed experiment the CSV
// output must be byte-identical across (a) the from-scratch baseline (a
// fresh cluster/engine/system per measurement point, the pre-reuse
// behaviour), (b) the serial runner reusing Reset state, and (c) a 4-worker
// pool. The list covers every reuse mechanism: fig3b
// and fig5a exercise the cluster cache, table5c the mpisim engine cache,
// spc the raidsim system cache, and fig7a the shared, never-zeroed
// Env.sinkMem deposit region plus the vectorized scatter path (both
// columns, so the sPIN column's bit-identity contract is pinned here too —
// since PR 5's vectorized scatter it runs at the common subsample in well
// under a second). scripts/check.sh runs this test as the merge gate — a
// nondeterministic merge or a stale field missed by a Reset shows up here
// as a byte diff.
func TestSweepResetAndParallelDeterminism(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, id := range []string{"fig3b", "fig5a", "table5c", "spc", "fig7a"} {
		scale := 4
		exp := buildExperiment(t, id)
		freshTab, err := exp.Build(scale).Run(RunOptions{Fresh: true})
		if err != nil {
			t.Fatalf("%s fresh: %v", id, err)
		}
		fresh := tableCSV(freshTab)

		reuseTab, err := exp.Build(scale).Run(RunOptions{})
		if err != nil {
			t.Fatalf("%s serial reuse: %v", id, err)
		}
		if reuse := tableCSV(reuseTab); reuse != fresh {
			t.Fatalf("%s: Reset-reuse output differs from fresh-cluster output:\n--- fresh ---\n%s--- reuse ---\n%s", id, fresh, reuse)
		}

		parTab, err := exp.Build(scale).Run(RunOptions{Pool: pool})
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if par := tableCSV(parTab); par != fresh {
			t.Fatalf("%s: parallel output differs from serial output:\n--- serial ---\n%s--- parallel ---\n%s", id, fresh, par)
		}
	}
}

// TestEnvReusesClusters pins the cache behaviour Env exists for: same
// configuration, same cluster (reset); different node count or parameters,
// different cluster; equal-valued topologies built by separate calls still
// share.
func TestEnvReusesClusters(t *testing.T) {
	e := NewEnv()
	c1, nis1, err := e.cluster(4, netsim.Integrated())
	if err != nil {
		t.Fatal(err)
	}
	c1.Send(0, &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: 64})
	c1.Eng.Run()
	if c1.Eng.Now() == 0 {
		t.Fatal("workload did not advance the clock")
	}
	c2, nis2, err := e.cluster(4, netsim.Integrated()) // fresh Params value, same config
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 || &nis2[0] == nil || nis2[0] != nis1[0] {
		t.Fatal("same configuration should return the cached cluster and NIs")
	}
	if c2.Eng.Now() != 0 || c2.MessagesSent != 0 {
		t.Fatal("cached cluster was not reset")
	}
	if c3, _, _ := e.cluster(5, netsim.Integrated()); c3 == c1 {
		t.Fatal("different node count must not share a cluster")
	}
	if c4, _, _ := e.cluster(4, netsim.Discrete()); c4 == c1 {
		t.Fatal("different parameters must not share a cluster")
	}
	var nilEnv *Env
	c5, _, err := nilEnv.cluster(4, netsim.Integrated())
	if err != nil || c5 == c1 {
		t.Fatalf("nil Env must build fresh (err=%v)", err)
	}
}

// TestSweepErrorPropagates checks Run surfaces the earliest-indexed failing
// point's error, serial and on a pool.
func TestSweepErrorPropagates(t *testing.T) {
	build := func() *Sweep {
		s := NewSweep(&Table{ID: "x", Header: []string{"v"}})
		for i := 0; i < 6; i++ {
			s.Row(func(e *Env) ([]string, error) {
				// An impossible ping-pong: oversized HPU memory demand is
				// not triggerable here, so use a plain failing point.
				switch i {
				case 3:
					return nil, errPoint
				case 5:
					return nil, errLater
				}
				return []string{"ok"}, nil
			})
		}
		return s
	}
	if _, err := build().Run(RunOptions{}); err != errPoint {
		t.Fatalf("serial: err = %v, want errPoint", err)
	}
	pool := NewPool(3)
	defer pool.Close()
	if _, err := build().Run(RunOptions{Pool: pool}); err != errPoint {
		t.Fatalf("pool: err = %v, want errPoint", err)
	}
}

var (
	errPoint = errors.New("point failed")
	errLater = errors.New("later point failed")
)

// TestSingleHelperEquivalence pins that the exported single-point helpers
// (nil Env) and the sweep path measure the same thing: one of each family.
func TestSingleHelperEquivalence(t *testing.T) {
	p := netsim.Integrated()
	e := NewEnv()
	a, err := PingPongHalfRTT(p, SpinStream, 4096, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	b, err := pingPongHalfRTT(e, p, SpinStream, 4096, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	c, err := pingPongHalfRTT(e, p, SpinStream, 4096, noise.None()) // reused cluster
	if err != nil {
		t.Fatal(err)
	}
	if a != b || b != c {
		t.Fatalf("ping-pong diverged: fresh=%v env=%v env-reused=%v", a, b, c)
	}
}

// TestImpairedSweepDeterminism extends the golden equality check to sweeps
// running under a fault model: with a fixed impairment, CSV output and the
// accumulated fault counters must be byte-identical across the from-scratch
// baseline, the Reset-reuse serial runner, and a 4-worker pool.
// fig3b runs under jitter+latency only — ping-pong has no retransmission
// path, so loss would legitimately stall it — while ftbcast layers user
// loss+jitter on top of its built-in recovery machinery. This is the -race
// job's impaired variant: a fault schedule that leaked state across Reset or
// depended on worker interleaving shows up here as a row or counter diff.
func TestImpairedSweepDeterminism(t *testing.T) {
	cases := []struct {
		id string
		im *netsim.Impairment
	}{
		{"fig3b", &netsim.Impairment{Seed: 11, ExtraLatency: 300 * sim.Nanosecond, Jitter: 200 * sim.Nanosecond}},
		{"ftbcast", &netsim.Impairment{Seed: 9, Loss: 0.02, Jitter: 300 * sim.Nanosecond}},
	}
	pool := NewPool(4)
	defer pool.Close()
	for _, tc := range cases {
		scale := 4
		exp := buildExperiment(t, tc.id)

		fresh := exp.Build(scale)
		freshTab, err := fresh.Run(RunOptions{Fresh: true, Impairment: tc.im})
		if err != nil {
			t.Fatalf("%s impaired fresh: %v", tc.id, err)
		}
		want := tableCSV(freshTab)
		wantFaults := fresh.Faults()
		if !wantFaults.Any() {
			t.Fatalf("%s: impairment installed but no faults recorded", tc.id)
		}

		serial := exp.Build(scale)
		serialTab, err := serial.Run(RunOptions{Impairment: tc.im})
		if err != nil {
			t.Fatalf("%s impaired serial: %v", tc.id, err)
		}
		if got := tableCSV(serialTab); got != want {
			t.Fatalf("%s: impaired Reset-reuse output differs from fresh:\n--- fresh ---\n%s--- reuse ---\n%s", tc.id, want, got)
		}
		if serial.Faults() != wantFaults {
			t.Fatalf("%s: serial fault counters diverged: %+v vs %+v", tc.id, serial.Faults(), wantFaults)
		}

		par := exp.Build(scale)
		parTab, err := par.Run(RunOptions{Pool: pool, Impairment: tc.im})
		if err != nil {
			t.Fatalf("%s impaired parallel: %v", tc.id, err)
		}
		if got := tableCSV(parTab); got != want {
			t.Fatalf("%s: impaired parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", tc.id, want, got)
		}
		if par.Faults() != wantFaults {
			t.Fatalf("%s: parallel fault counters diverged: %+v vs %+v", tc.id, par.Faults(), wantFaults)
		}
	}
}

// TestSweepShapesAgreeOnFailure runs a sweep whose points fail under a
// fault model in every execution shape: serial, Fresh and a 2-worker pool
// must all run every point and report the same first error and the same
// fault counters. fig5a at scale 4 under 1% loss fails some points and
// completes others.
func TestSweepShapesAgreeOnFailure(t *testing.T) {
	im, err := netsim.ParseImpairment("loss=0.01,jitter=2us,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	exp := buildExperiment(t, "fig5a")
	pool := NewPool(2)
	defer pool.Close()
	shapes := []struct {
		name string
		opts RunOptions
	}{
		{"serial", RunOptions{Impairment: im}},
		{"fresh", RunOptions{Fresh: true, Impairment: im}},
		{"pool", RunOptions{Pool: pool, Impairment: im}},
	}
	var wantErr string
	var wantFaults netsim.FaultStats
	for i, sh := range shapes {
		s := exp.Build(4)
		_, err := s.Run(sh.opts)
		if err == nil {
			t.Fatalf("%s: fig5a under %s completed; the test needs a failing point", sh.name, im)
		}
		if i == 0 {
			wantErr, wantFaults = err.Error(), s.Faults()
			continue
		}
		if err.Error() != wantErr {
			t.Errorf("%s: error %q, serial %q", sh.name, err, wantErr)
		}
		if s.Faults() != wantFaults {
			t.Errorf("%s: faults %+v, serial %+v", sh.name, s.Faults(), wantFaults)
		}
	}
}

// TestEnvCachesMpiEnginesByConfiguration replays one small application
// under a run of never-seen fault seeds, interleaved with perfect-network
// replays, on one Env. The Env must keep one mpisim engine per
// configuration (one per matching mode here), however many seeds it has
// served, and every replay must match a from-scratch build under the same
// model.
func TestEnvCachesMpiEnginesByConfiguration(t *testing.T) {
	a := apps.App{Name: "t", Ranks: 4, Dims: []int{2, 2}, HaloBytes: []int{16384, 16384}, TargetP2PFraction: 0.05}
	env := NewEnv()
	for seed := uint64(1); seed <= 6; seed++ {
		var im *netsim.Impairment
		if seed%3 != 0 {
			im = &netsim.Impairment{Seed: seed, Jitter: 5 * sim.Microsecond}
		}
		env.impair = im
		before := env.FaultStats()
		got, err := RunApp(env, a, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh := NewEnv()
		fresh.noCache, fresh.impair = true, im
		want, err := RunApp(fresh, a, 4)
		if err != nil {
			t.Fatalf("seed %d fresh: %v", seed, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("seed %d: cached engine diverged from fresh:\ncached %+v\nfresh  %+v", seed, got, want)
		}
		if d := env.FaultStats().Sub(before); d != fresh.FaultStats() {
			t.Fatalf("seed %d: cached engine faults %+v, fresh %+v", seed, d, fresh.FaultStats())
		}
	}
	if n := len(env.mpis); n != 2 {
		t.Fatalf("Env holds %d mpisim engines after 6 fault models, want one per matching mode (2)", n)
	}
}
