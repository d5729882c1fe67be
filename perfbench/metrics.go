package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/bench"
)

// metricDef is one metric the benchmark reports: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the simulator
// sees them. An operation is one regeneration pass on the simulation
// workloads and one HTTP request on serve-mix.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"allocs", "count"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_ops", "1/s"},
}

// selfLayers are the span layers whose self time the traced run reports.
var selfLayers = []string{layerPass, layerExperiment, layerPoint, layerApp, layerReplay, layerRequest}

// perLayer returns the metrics of a traced run. Every traced run reports
// all of them; a layer the workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.hold_ns.d16", "ns"},
		{"sim.hold_ns.d1024", "ns"},
		{"sim.hold_ns.d4096", "ns"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"netsim.ns_per_packet", "ns"},
		{"netsim.ns_per_small_msg", "ns"},
		{"netsim.delayed", "count"},
		{"netsim.retransmits", "count"},
		{"netsim.retrans_failures", "count"},
		{"portals.ns_per_put.8B", "ns"},
		{"portals.ns_per_put.64KiB", "ns"},
		{"core.ns_per_handler.8B", "ns"},
		{"core.ns_per_handler.64KiB", "ns"},
		{"mpisim.messages", "count"},
		{"mpisim.ns_per_msg", "ns"},
		{"mpisim.events_per_msg", "events/msg"},
		{"mpisim.retransmits_per_msg", "1/msg"},
		{"mpisim.useful_ratio", "ratio"},
	}
	for _, e := range bench.Experiments() {
		defs = append(defs, metricDef{"bench." + e.ID + ".wall_ms", "ms"}, metricDef{"bench." + e.ID + ".allocs", "count"})
	}
	defs = append(defs,
		metricDef{"bench.table5c.spdup_err_pp", "pp"},
		metricDef{"serve.warm_self_us", "us"},
		metricDef{"serve.cold_overhead_ms", "ms"},
		metricDef{"serve.hit_ratio", "ratio"},
		metricDef{"serve.warm_p50_ms", "ms"},
		metricDef{"serve.warm_tail_ms", "ms"},
		metricDef{"serve.cold_p50_ms", "ms"},
		metricDef{"serve.cold_tail_ms", "ms"},
	)
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{"cpu." + p.name + ".share", "ratio"})
	}
	defs = append(defs, metricDef{"cpu.gc_malloc.share", "ratio"}, metricDef{"trace.overhead_frac", "ratio"})
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"trace.self_ms." + l, "ms"})
	}
	return defs
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's metrics, which must be exactly defs, and the
// human-readable lines printed before the result.
type report struct {
	defs      []metricDef
	vals      map[string]float64
	order     []string // names in the order they were first set
	notes     []string
	attempted int
	failed    int
	errs      []error
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, vals: map[string]float64{}}
}

func (r *report) set(name string, v float64) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = v
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// outcome counts attempted operations and the errors among them.
func (r *report) outcome(attempted int, errs ...error) {
	r.attempted += attempted
	for _, err := range errs {
		if err != nil {
			r.failed++
			r.errs = append(r.errs, err)
		}
	}
}

// noteSummary prints a sample's median, quartiles, tail and count.
func (r *report) noteSummary(name, unit string, s summary) {
	tail := "n/a (fewer than 20 samples)"
	if s.tailPct > 0 {
		tail = fmt.Sprintf("p%g %.4g", s.tailPct, s.tail)
	}
	r.note("%s: median %.4g %s, quartiles [%.4g, %.4g], tail %s, n=%d", name, s.median, unit, s.q1, s.q3, tail, s.n)
}

// finish checks that every defined metric, and nothing else, was set, and
// builds the result.
func (r *report) finish() (result, error) {
	res := result{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0, Metrics: map[string]metricValue{}}
	for _, d := range r.defs {
		v, ok := r.vals[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, name := range r.order {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not defined", name)
		}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// print writes the notes, every metric by name and unit, the first
// failures, and finally the result line.
func (r *report) print(w io.Writer, line []byte) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, r.vals[d.name], d.unit)
	}
	if r.attempted > 0 {
		fmt.Fprintf(w, "failed_frac: %d/%d = %.4g\n", r.failed, r.attempted, float64(r.failed)/float64(r.attempted))
	}
	for i, err := range r.errs {
		if i == 5 {
			fmt.Fprintf(w, "... and %d more failures\n", len(r.errs)-i)
			break
		}
		fmt.Fprintf(w, "FAILED: %v\n", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
