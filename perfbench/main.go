// Command perfbench is the repository's benchmark. It regenerates the
// paper's experiments and serves them over HTTP under four workloads,
// checks every output, and prints each metric by name and unit, ending
// with one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: table5c (Table 5c at scale 4), nic-suite (the other twelve
// experiments at scale 4), serve-mix (the HTTP service under a 90% warm /
// 10% cold closed loop of two clients) and table5c-jitter (Table 5c at
// scale 8 under jitter=10us with the given seed). With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it reports the per-layer
// metrics, from layer probes, spans recorded around calls into each layer,
// and a CPU profile aggregated by package. perfbench/run.sh builds and runs
// it from the repository root; METRICS.md describes every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/bench"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workloads are the workload names, in the order BENCHMARK.json lists them.
var workloads = []string{"table5c", "nic-suite", "serve-mix", "table5c-jitter"}

// setupRepeats is how many times a simulation workload sets up in one run;
// setup_s is their median.
const setupRepeats = 3

// outDir receives the traced run's CPU profile and spans, relative to the
// repository root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "table5c, nic-suite, serve-mix or table5c-jitter")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's random inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if o.seconds < 1 || (trace != 0 && trace != 1) || o.seed < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, --seed >= 0")
		os.Exit(2)
	}
	o.trace = trace == 1
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := rep.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, line)
}

func run(o options) (*report, error) {
	clk := start()
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	rep := newReport(defs)
	rep.note("perfbench: workload %s, seed %d, %d s, trace %v; %d CPUs, GOMAXPROCS %d, %s",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	budget := time.Duration(o.seconds) * time.Second
	var err error
	switch o.workload {
	case "table5c", "nic-suite", "table5c-jitter":
		err = runSim(o, clk, budget, rep)
	case "serve-mix":
		err = runServeMix(o, clk, budget, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	return rep, err
}

// setUpSim sets a simulation workload up setupRepeats times and returns
// the last set-up with the median set-up time in seconds.
func setUpSim(o options) (*simWorkload, float64, error) {
	var w *simWorkload
	times := make([]float64, setupRepeats)
	for i := range times {
		sw := start()
		var err error
		w, err = newSimWorkload(o.workload, o.seed)
		times[i] = sw.elapsed().Seconds()
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return w, summarize(times).median, nil
}

// timedLoop calls step (which returns how long it took) until the budget
// is spent: at least minSteps times, and never starting a step that the
// previous one suggests would overrun. It returns the loop's host time.
func timedLoop(budget time.Duration, minSteps int, step func(i int) time.Duration) time.Duration {
	sw := start()
	var last time.Duration
	for i := 0; ; i++ {
		if el := sw.elapsed(); i >= minSteps && el+last > budget {
			return el
		}
		last = step(i)
	}
}

// runSim runs table5c, nic-suite or table5c-jitter.
func runSim(o options, clk stopwatch, budget time.Duration, rep *report) error {
	w, setupS, err := setUpSim(o)
	if err != nil {
		return err
	}
	if o.trace {
		return traceSim(o, clk, budget, w, rep)
	}
	var passes []passStats
	timedLoop(budget, 3, func(int) time.Duration {
		p := w.pass(nil)
		passes = append(passes, p)
		return p.wall
	})
	var walls, mallocs, mbytes []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		mallocs = append(mallocs, float64(p.heap.mallocs))
		mbytes = append(mbytes, float64(p.heap.bytes)/1e6)
		countRuns(rep, p)
	}
	// The operation a user of a simulation workload waits for is the pass:
	// its tables, regenerated.
	ws := summarize(walls)
	rep.noteSummary("wall per pass", "s", ws)
	rep.set("wall_s", ws.median)
	rep.set("setup_s", setupS)
	rep.set("allocs", summarize(mallocs).median)
	rep.set("alloc_mb", summarize(mbytes).median)
	rep.set("p50_ms", 1e3*ws.median)
	rep.set("tail_ms", 1e3*ws.tail)
	rep.set("throughput_ops", 1/ws.median)
	f := passes[0].faults()
	rep.note("faults per pass: delayed=%d retransmits=%d retrans_failures=%d", f.Delayed, f.Retransmits, f.RetransFails)
	return setRSS(rep)
}

func countRuns(rep *report, p passStats) {
	errs := make([]error, len(p.runs))
	for i, r := range p.runs {
		errs[i] = r.err
	}
	rep.outcome(len(p.runs), errs...)
}

func setRSS(rep *report) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss)
	return nil
}

// traceSim is the traced run of a simulation workload.
func traceSim(o options, clk stopwatch, budget time.Duration, w *simWorkload, rep *report) error {
	rec := newRecorder(clk)
	if err := layerProbes(rep, o.seed); err != nil {
		return err
	}
	t5c, err := benchOneShot(rep, w.exps)
	if err != nil {
		return err
	}
	var traced, plain []passStats
	shares, err := profiled(o, func() {
		timedLoop(budget, 2, func(i int) time.Duration {
			if i%2 == 1 {
				traced = append(traced, w.pass(rec))
				return traced[len(traced)-1].wall
			}
			plain = append(plain, w.pass(nil))
			return plain[len(plain)-1].wall
		})
	})
	if err != nil {
		return err
	}
	setShares(rep, shares)
	var tw, pw []float64
	for _, p := range traced {
		tw = append(tw, p.wall.Seconds())
		countRuns(rep, p)
	}
	expMS, expAllocs := map[string][]float64{}, map[string][]float64{}
	for _, p := range plain {
		pw = append(pw, p.wall.Seconds())
		countRuns(rep, p)
		for _, r := range p.runs {
			expMS[r.exp] = append(expMS[r.exp], float64(r.wall.Nanoseconds())/1e6)
			expAllocs[r.exp] = append(expAllocs[r.exp], float64(r.heap.mallocs))
		}
	}
	for _, e := range w.exps {
		rep.set("bench."+e.ID+".wall_ms", summarize(expMS[e.ID]).median)
		rep.set("bench."+e.ID+".allocs", summarize(expAllocs[e.ID]).median)
	}
	ts, us := summarize(tw), summarize(pw)
	rep.noteSummary("traced wall per pass", "s", ts)
	rep.noteSummary("untraced wall per pass", "s", us)
	rep.set("trace.overhead_frac", ts.median/us.median-1)

	f := traced[0].faults()
	rep.set("netsim.delayed", float64(f.Delayed))
	rep.set("netsim.retransmits", float64(f.Retransmits))
	rep.set("netsim.retrans_failures", float64(f.RetransFails))

	var tot replayTotals
	for _, r := range traced[0].runs {
		if r.exp != "table5c" || r.err != nil {
			continue
		}
		t5c = r.csv
		replayCSV, t, err := replayTable5c(w.scale, w.impair, rec)
		if err != nil {
			return err
		}
		tot = t
		if string(replayCSV) != string(r.csv) {
			rep.note("WARNING: the table5c replay through apps.Runner printed a different table than the experiment; its counts describe a different computation")
		}
	}
	setReplay(rep, tot)
	if err := setSpdupError(rep, t5c); err != nil {
		return err
	}
	for _, name := range []string{"serve.cold_overhead_ms", "serve.hit_ratio", "serve.warm_p50_ms",
		"serve.warm_tail_ms", "serve.cold_p50_ms", "serve.cold_tail_ms"} {
		rep.set(name, 0)
	}
	noteBaseline(rep, o, us.median, tot, f, shares)
	return finishSpans(rep, o, rec)
}

// layerProbes runs the per-layer microprobes, which every traced run
// reports whatever its workload.
func layerProbes(rep *report, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, d := range []int{16, 1024, 4096} {
		ns, err := probeHold(d, rng)
		if err != nil {
			return err
		}
		rep.set(fmt.Sprintf("sim.hold_ns.d%d", d), ns)
	}
	pkt, small, err := probeTransport()
	if err != nil {
		return err
	}
	rep.set("netsim.ns_per_packet", pkt)
	rep.set("netsim.ns_per_small_msg", small)
	pp, err := newPutProbe()
	if err != nil {
		return err
	}
	for _, s := range []struct {
		size int
		name string
		ops  int
	}{{8, "8B", 5000}, {64 << 10, "64KiB", 200}} {
		plain, perHandler, err := pp.probePuts(s.size, s.ops)
		if err != nil {
			return err
		}
		rep.set("portals.ns_per_put."+s.name, plain)
		rep.set("core.ns_per_handler."+s.name, perHandler)
	}
	us, err := probeServeWarm()
	if err != nil {
		return err
	}
	rep.set("serve.warm_self_us", us)
	return nil
}

// benchOneShot regenerates once, serially and unimpaired at scale 4, every
// experiment the workload does not hold, checking each against its pinned
// digest, and reports its host time and allocations. It returns the Table
// 5c CSV when it regenerated Table 5c.
func benchOneShot(rep *report, held []bench.Experiment) ([]byte, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	w := &simWorkload{scale: 4, check: func(exp string, csv []byte) error { return p.check(exp, 4, csv) }}
	for _, e := range bench.Experiments() {
		if !slices.ContainsFunc(held, func(h bench.Experiment) bool { return h.ID == e.ID }) {
			w.exps = append(w.exps, e)
		}
	}
	ps := w.pass(nil)
	countRuns(rep, ps)
	var t5c []byte
	for _, r := range ps.runs {
		rep.set("bench."+r.exp+".wall_ms", float64(r.wall.Nanoseconds())/1e6)
		rep.set("bench."+r.exp+".allocs", float64(r.heap.mallocs))
		if r.exp == "table5c" {
			t5c = r.csv
		}
	}
	return t5c, nil
}

// profiled runs fn under the CPU profiler and returns each package's share
// of the samples.
func profiled(o options, fn func()) (map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return cpuShares(path)
}

func setShares(rep *report, shares map[string]float64) {
	for _, p := range cpuPackages {
		rep.set("cpu."+p.name+".share", shares[p.name])
	}
	rep.set("cpu.gc_malloc.share", shares["gc_malloc"])
}

// setReplay reports the mpisim replay totals of one Table 5c regeneration;
// a workload without replays reports zeros.
func setReplay(rep *report, t replayTotals) {
	rep.set("sim.events", float64(t.events))
	rep.set("mpisim.messages", float64(t.messages))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ns := float64(t.wall.Nanoseconds())
	rep.set("sim.ns_per_event", ratio(ns, float64(t.events)))
	rep.set("mpisim.ns_per_msg", ratio(ns, float64(t.messages)))
	rep.set("mpisim.events_per_msg", ratio(float64(t.events), float64(t.messages)))
	rep.set("mpisim.retransmits_per_msg", ratio(float64(t.retransmits), float64(t.messages)))
	rep.set("mpisim.useful_ratio", ratio(float64(t.messages), float64(t.messages+t.retransmits)))
	if t.replays > 0 {
		rep.note("table5c replay: %d replays, %d events, %d messages, %d retransmits, %.3f s in mpisim",
			t.replays, t.events, t.messages, t.retransmits, t.wall.Seconds())
	}
}

// setSpdupError reports Table 5c's error against the paper; a run whose
// Table 5c failed (and so counts as failed) reports 0.
func setSpdupError(rep *report, t5c []byte) error {
	if t5c == nil {
		rep.set("bench.table5c.spdup_err_pp", 0)
		return nil
	}
	pp, err := spdupErrorPP(t5c)
	if err != nil {
		return err
	}
	rep.set("bench.table5c.spdup_err_pp", pp)
	return nil
}

// finishSpans reports each layer's median self time per trace and writes
// the spans out.
func finishSpans(rep *report, o options, rec *recorder) error {
	for _, l := range selfLayers {
		rep.set("trace.self_ms."+l, summarize(selfPerTrace(rec.spans, l)).median)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(rec.spans), path)
	return nil
}
