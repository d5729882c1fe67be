// Benchmark harness: one testing.B entry per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment at reduced
// sweep resolution (the full sweeps are cmd/spinbench's job) and reports
// paper-relevant quantities as custom metrics, so `go test -bench=.`
// doubles as a regression check on the reproduced shapes.
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/noise"
)

// benchScale subsamples the sweeps so a full -bench=. run stays fast.
const benchScale = 4

func runTable(b *testing.B, f func(int) (*bench.Table, error)) *bench.Table {
	b.Helper()
	var t *bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = f(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	return t
}

// BenchmarkFig3b regenerates Figure 3b (ping-pong, integrated NIC).
func BenchmarkFig3b(b *testing.B) {
	runTable(b, bench.Fig3b)
	small, _ := bench.PingPongHalfRTT(netsim.Integrated(), bench.SpinStore, 8, noise.None())
	rdma, _ := bench.PingPongHalfRTT(netsim.Integrated(), bench.RDMA, 8, noise.None())
	b.ReportMetric(small.Microseconds(), "sPIN-8B-us")
	b.ReportMetric(rdma.Microseconds(), "RDMA-8B-us")
}

// BenchmarkFig3c regenerates Figure 3c (ping-pong, discrete NIC).
func BenchmarkFig3c(b *testing.B) {
	runTable(b, bench.Fig3c)
	small, _ := bench.PingPongHalfRTT(netsim.Discrete(), bench.SpinStore, 8, noise.None())
	rdma, _ := bench.PingPongHalfRTT(netsim.Discrete(), bench.RDMA, 8, noise.None())
	b.ReportMetric(small.Microseconds(), "sPIN-8B-us")
	b.ReportMetric(rdma.Microseconds(), "RDMA-8B-us")
}

// BenchmarkFig3d regenerates Figure 3d (remote accumulate).
func BenchmarkFig3d(b *testing.B) {
	runTable(b, bench.Fig3d)
	spin, _ := bench.AccumulateTime(netsim.Discrete(), true, 1<<18)
	rdma, _ := bench.AccumulateTime(netsim.Discrete(), false, 1<<18)
	b.ReportMetric(float64(rdma)/float64(spin), "speedup-256KiB-x")
}

// BenchmarkFig4 regenerates Figure 4 (HPUs needed, analytic model).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig4()
	}
	p := netsim.Integrated()
	b.ReportMetric(float64(bench.GBoundCrossover(p)), "gG-crossover-B")
	b.ReportMetric(bench.MaxHandlerTimeLine(p, 8, 4096).Nanoseconds(), "Tl-4096-ns")
}

// BenchmarkFig5a regenerates Figure 5a (binomial broadcast).
func BenchmarkFig5a(b *testing.B) {
	runTable(b, bench.Fig5a)
	spin, _ := bench.BroadcastTime(netsim.Discrete(), bench.SpinStream, 1024, 8)
	rdma, _ := bench.BroadcastTime(netsim.Discrete(), bench.RDMA, 1024, 8)
	b.ReportMetric(spin.Microseconds(), "sPIN-1024p-8B-us")
	b.ReportMetric(rdma.Microseconds(), "RDMA-1024p-8B-us")
}

// BenchmarkTable5c regenerates Table 5c (application speedups).
func BenchmarkTable5c(b *testing.B) {
	runTable(b, bench.Table5c)
}

// BenchmarkFig7a regenerates Figure 7a (strided datatype receive).
func BenchmarkFig7a(b *testing.B) {
	runTable(b, bench.Fig7a)
	spin, _ := bench.StridedReceiveTime(netsim.Integrated(), true, 4096)
	gib := float64(bench.DDTTotalBytes) / (spin.Seconds() * float64(1<<30))
	b.ReportMetric(gib, "sPIN-4KiB-GiB/s")
}

// BenchmarkFig7c regenerates Figure 7c (RAID-5 update).
func BenchmarkFig7c(b *testing.B) {
	runTable(b, bench.Fig7c)
	spin, _ := bench.RaidUpdateTime(netsim.Discrete(), true, 1<<18)
	rdma, _ := bench.RaidUpdateTime(netsim.Discrete(), false, 1<<18)
	b.ReportMetric(float64(rdma)/float64(spin), "speedup-256KiB-x")
}

// BenchmarkSPC regenerates the §5.3 SPC trace study.
func BenchmarkSPC(b *testing.B) {
	runTable(b, func(int) (*bench.Table, error) { return bench.SPCTraces() })
}

// BenchmarkAblationNoise regenerates the OS-noise sensitivity ablation.
func BenchmarkAblationNoise(b *testing.B) {
	runTable(b, func(int) (*bench.Table, error) { return bench.AblationNoise() })
}

// BenchmarkAblationBcastStore regenerates the store-vs-stream ablation.
func BenchmarkAblationBcastStore(b *testing.B) {
	runTable(b, func(int) (*bench.Table, error) { return bench.AblationBcastStore() })
}

// BenchmarkAblationTrees regenerates the broadcast-algorithm ablation
// (binomial vs pipeline, the paper's §4.4.3 future-work item).
func BenchmarkAblationTrees(b *testing.B) {
	runTable(b, func(int) (*bench.Table, error) { return bench.AblationTrees() })
}
