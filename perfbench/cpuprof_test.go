package main

import "testing"

const pprofTop = `File: perfbench
Type: cpu
Duration: 2.01s, Total samples = 2000ms (99.50%)
Showing nodes accounting for 2000ms, 100% of 2000ms total
      flat  flat%   sum%        cum   cum%
     800ms 40.00% 40.00%      900ms 45.00%  repro/internal/sim.(*Engine).pop
     200ms 10.00% 50.00%      200ms 10.00%  repro/internal/sim.(*event).less (inline)
     300ms 15.00% 65.00%      500ms 25.00%  runtime.mallocgc
     100ms  5.00% 70.00%      100ms  5.00%  net/http.(*conn).serve
     100ms  5.00% 75.00%      100ms  5.00%  repro/internal/bench.fig5aSweep.func1.2
         0     0% 75.00%      200ms 10.00%  runtime.gcBgMarkWorker
         0     0% 75.00%     2000ms   100%  main.main
`

func TestCPUSharesByImportPath(t *testing.T) {
	flat, cum, err := parsePprofTop(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]float64{
		"repro/internal/sim":   0.5,
		"runtime":              0.15,
		"net/http":             0.05,
		"repro/internal/bench": 0.05,
		"main":                 0,
	} {
		if !near(flat[path], want) {
			t.Errorf("flat share of %s = %v, want %v", path, flat[path], want)
		}
	}
	if !near(cum["runtime.mallocgc"]+cum["runtime.gcBgMarkWorker"], 0.35) {
		t.Errorf("allocation and collection share = %v, want 0.35", cum["runtime.mallocgc"]+cum["runtime.gcBgMarkWorker"])
	}
	if _, _, err := parsePprofTop("no table here"); err == nil {
		t.Error("output without a table parsed")
	}
}
