package main

import "repro/internal/netsim"

// noteBaseline prints a traced run's figures beside the hand-measured
// Baseline of ROADMAP.md, so the first traced run can be reconciled with it.
func noteBaseline(rep *report, o options, untracedWall float64, t replayTotals, f netsim.FaultStats, shares map[string]float64) {
	switch o.workload {
	case "table5c":
		rep.note("baseline: %d events per regeneration (ROADMAP Baseline: 7.65M)", t.events)
		rep.note("baseline: cpu.sim.share %.1f%% flat (ROADMAP Baseline: pop+less 57%% cumulative, push 5%%)", 100*shares["sim"])
		rep.note("baseline: untraced wall %.3f s per pass under the profiler (ROADMAP Baseline: 2.65-2.9 s)", untracedWall)
	case "table5c-jitter":
		rep.note("baseline: seed %d: %d retransmits, %d give-ups per regeneration (ROADMAP Baseline: 1.97M and 76.6k at seed 7)",
			o.seed, f.Retransmits, f.RetransFails)
		rep.note("baseline: untraced wall %.3f s per pass under the profiler (ROADMAP Baseline: 5.3 s against 1.4 s unimpaired)", untracedWall)
	}
}
