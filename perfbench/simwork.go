package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/netsim"
)

// warmupScale is the subsample factor of the untimed warm-up regeneration
// in set-up: the coarsest the registry admits, so the warm-up faults in the
// code and grows the heap without costing a full pass.
const warmupScale = 64

// simWorkload is a workload that regenerates experiments serially in the
// benchmark's own process: table5c, nic-suite and table5c-jitter.
type simWorkload struct {
	exps   []bench.Experiment
	scale  int
	impair *netsim.Impairment // nil runs on a perfect network
	// check verifies one experiment's CSV from one pass.
	check func(exp string, csv []byte) error
}

// expRun is the outcome of one experiment regeneration within a pass.
type expRun struct {
	exp    string
	csv    []byte
	wall   time.Duration // Experiment.Build plus Sweep.Run
	heap   heapCounters  // allocated meanwhile
	faults netsim.FaultStats
	err    error // a run error or a failed output check
}

// passStats is what one regeneration pass measured.
type passStats struct {
	wall time.Duration
	heap heapCounters
	runs []expRun
}

func (p passStats) faults() netsim.FaultStats {
	var f netsim.FaultStats
	for _, r := range p.runs {
		f.Add(r.faults)
	}
	return f
}

// selectExperiments returns the experiments with the given ids, in order.
func selectExperiments(ids ...string) ([]bench.Experiment, error) {
	out := make([]bench.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := bench.FindExperiment(id)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not in the registry", id)
		}
		out = append(out, e)
	}
	return out, nil
}

// nicSuiteIDs are the twelve experiments other than table5c.
func nicSuiteIDs() []string {
	var ids []string
	for _, e := range bench.Experiments() {
		if e.ID != "table5c" {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// newSimWorkload performs one set-up of a simulation workload: load the
// pinned digests, lay out the experiments, parse the impairment, and run
// the untimed warm-up regeneration.
func newSimWorkload(name string, seed int64) (*simWorkload, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	w := &simWorkload{}
	switch name {
	case "table5c":
		w.scale = 4
		w.exps, err = selectExperiments("table5c")
	case "nic-suite":
		w.scale = 4
		w.exps, err = selectExperiments(nicSuiteIDs()...)
	case "table5c-jitter":
		w.scale = 8
		w.exps, err = selectExperiments("table5c")
		if err == nil {
			w.impair, err = netsim.ParseImpairment(fmt.Sprintf("jitter=10us,seed=%d", seed))
		}
	default:
		return nil, fmt.Errorf("unknown simulation workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if w.impair == nil {
		w.check = func(exp string, csv []byte) error { return p.check(exp, w.scale, csv) }
	} else {
		w.check = jitterCheck()
	}
	for _, e := range w.exps {
		if _, err := e.Build(warmupScale).Run(bench.RunOptions{}); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", e.ID, err)
		}
	}
	return w, nil
}

// jitterCheck returns the table5c-jitter output check: the unimpaired
// table's rows and message counts, and the same bytes on every pass of the
// run.
func jitterCheck() func(exp string, csv []byte) error {
	var first []byte
	return func(exp string, csv []byte) error {
		if err := checkJitterInvariants(table5cScale8, csv); err != nil {
			return err
		}
		if first == nil {
			first = csv
			return nil
		}
		if !bytes.Equal(first, csv) {
			return fmt.Errorf("%s under jitter: CSV differs between passes of one run (digest %s, first pass %s)",
				exp, digest(csv)[:16], digest(first)[:16])
		}
		return nil
	}
}

// pass regenerates every experiment of the workload once, serially,
// checking each output. An experiment that fails is recorded and the pass
// goes on with the next. With a recorder, the pass, each experiment's
// Sweep.Run, and each point between consecutive progress ticks become
// spans of one trace.
func (w *simWorkload) pass(rec *recorder) passStats {
	var ps passStats
	// Every pass starts from a collected heap, so the collector's state
	// left by earlier passes does not decide this one's time.
	runtime.GC()
	trace := rec.newTrace()
	passSpan := rec.begin(trace, 0, layerPass, "pass")
	before := readHeap()
	sw := start()
	for _, e := range w.exps {
		run := w.runExperiment(e, rec, trace, passSpan)
		if run.err == nil {
			run.err = w.check(e.ID, run.csv)
		}
		ps.runs = append(ps.runs, run)
	}
	ps.wall = sw.elapsed()
	rec.end(passSpan)
	ps.heap = readHeap().sub(before)
	return ps
}

// runExperiment regenerates one experiment.
func (w *simWorkload) runExperiment(e bench.Experiment, rec *recorder, trace, parent int) expRun {
	before := readHeap()
	sw := start()
	sweep := e.Build(w.scale)
	expSpan := rec.begin(trace, parent, layerExperiment, e.ID)
	opts := bench.RunOptions{Impairment: w.impair}
	if rec != nil {
		lastAt := rec.clk.elapsed()
		opts.Progress = func(done, total int) {
			now := rec.clk.elapsed()
			rec.add(span{Trace: trace, Parent: expSpan, Layer: layerPoint,
				Name: fmt.Sprintf("%s/%d", e.ID, done), Start: lastAt, End: now})
			lastAt = now
		}
	}
	tab, err := sweep.Run(opts)
	rec.end(expSpan)
	run := expRun{exp: e.ID, wall: sw.elapsed(), faults: sweep.Faults()}
	run.heap = readHeap().sub(before)
	if err != nil {
		run.err = fmt.Errorf("%s: %w", e.ID, err)
		return run
	}
	var buf bytes.Buffer
	tab.CSV(&buf)
	run.csv = buf.Bytes()
	return run
}
