package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// replayTotals sums the mpisim replays of one Table 5c regeneration.
type replayTotals struct {
	replays     int
	events      uint64
	messages    uint64
	retransmits uint64
	wall        time.Duration // host time inside mpisim.New and Run
}

// replayTable5c regenerates Table 5c the way bench.RunApp does, but through
// an apps.Runner of the benchmark's own that wraps mpisim.New and Run, so
// each replay is timed and its counts recorded as a span under its
// application's span. It returns the regenerated CSV, which must equal the
// one the experiment itself prints.
func replayTable5c(scale int, im *netsim.Impairment, rec *recorder) ([]byte, replayTotals, error) {
	var tot replayTotals
	iters := bench.Table5cIterations / scale
	if iters < 10 {
		iters = 10
	}
	trace := rec.newTrace()
	suite := rec.begin(trace, 0, layerApps, "table5c")
	defer rec.end(suite)

	var app int
	runner := func(mode mpisim.MatchMode) apps.Runner {
		cfg := mpisim.DefaultConfig(mode)
		cfg.Impair = im
		return func(progs [][]mpisim.Op) (mpisim.Result, error) {
			id := rec.begin(trace, app, layerReplay, mode.String())
			sw := start()
			eng, err := mpisim.New(cfg, progs)
			var res mpisim.Result
			if err == nil {
				res, err = eng.Run()
			}
			tot.wall += sw.elapsed()
			rec.end(id)
			rec.count(id, "events", res.Events)
			rec.count(id, "messages", res.Messages)
			rec.count(id, "retransmits", res.Retransmits)
			tot.replays++
			tot.events += res.Events
			tot.messages += res.Messages
			tot.retransmits += res.Retransmits
			return res, err
		}
	}

	tab := [][]string{{"program", "p", "msgs", "ovhd", "spdup", "paper_ovhd", "paper_spdup"}}
	for _, a := range apps.Suite() {
		app = rec.begin(trace, suite, layerApp, fmt.Sprintf("%s/%d", a.Name, a.Ranks))
		row, err := replayApp(a, iters, runner)
		rec.end(app)
		if err != nil {
			return nil, tot, fmt.Errorf("replay %s/%d: %w", a.Name, a.Ranks, err)
		}
		tab = append(tab, row)
	}
	var buf bytes.Buffer
	for _, r := range tab {
		fmt.Fprintln(&buf, strings.Join(r, ","))
	}
	return buf.Bytes(), tot, nil
}

// replayApp is one Table 5c row: calibrate, replay the baseline, correct
// the compute phase once, and replay with offloaded matching.
func replayApp(a apps.App, iters int, runner func(mpisim.MatchMode) apps.Runner) ([]string, error) {
	baseRun := runner(mpisim.HostMatching)
	compute, err := a.Calibrate(baseRun, 8, nil)
	if err != nil {
		return nil, err
	}
	progs := a.Programs(iters, compute)
	base, err := baseRun(progs)
	if err != nil {
		return nil, err
	}
	if got := base.OverheadFraction(a.Ranks); got > 0.001 && got < a.TargetP2PFraction {
		compute = sim.Time(float64(compute) * got / a.TargetP2PFraction)
		progs = a.Programs(iters, compute)
		if base, err = baseRun(progs); err != nil {
			return nil, err
		}
	}
	spin, err := runner(mpisim.SpinMatching)(progs)
	if err != nil {
		return nil, err
	}
	speedup := float64(base.Runtime-spin.Runtime) / float64(base.Runtime)
	return []string{a.Name, fmt.Sprintf("%d", a.Ranks),
		fmt.Sprintf("%d", base.Messages),
		fmt.Sprintf("%.1f%%", 100*base.OverheadFraction(a.Ranks)),
		fmt.Sprintf("%.1f%%", 100*speedup),
		fmt.Sprintf("%.1f%%", 100*a.TargetP2PFraction),
		fmt.Sprintf("%.1f%%", 100*a.PaperSpeedup)}, nil
}

// spdupErrorPP is the mean absolute difference, in percentage points,
// between a Table 5c CSV's simulated spdup column and its paper_spdup
// column — the only reference data the repository holds.
func spdupErrorPP(csv []byte) (float64, error) {
	rows := csvRows(csv)
	if len(rows) < 2 {
		return 0, fmt.Errorf("table5c CSV has no data rows")
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	si, ok1 := col["spdup"]
	pi, ok2 := col["paper_spdup"]
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("table5c CSV lacks spdup or paper_spdup: header %v", rows[0])
	}
	var sum float64
	for _, r := range rows[1:] {
		var sim, paper float64
		if _, err := fmt.Sscanf(r[si], "%g%%", &sim); err != nil {
			return 0, fmt.Errorf("spdup %q: %w", r[si], err)
		}
		if _, err := fmt.Sscanf(r[pi], "%g%%", &paper); err != nil {
			return 0, fmt.Errorf("paper_spdup %q: %w", r[pi], err)
		}
		d := sim - paper
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(rows)-1), nil
}
