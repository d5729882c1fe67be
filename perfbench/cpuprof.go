package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuPackages are the import paths whose share of host CPU the traced run
// reports, under the metric name cpu.<name>.share.
var cpuPackages = []struct{ name, path string }{
	{"sim", "repro/internal/sim"},
	{"netsim", "repro/internal/netsim"},
	{"portals", "repro/internal/portals"},
	{"core", "repro/internal/core"},
	{"mpisim", "repro/internal/mpisim"},
	{"membus", "repro/internal/membus"},
	{"datatype", "repro/internal/datatype"},
	{"raidsim", "repro/internal/raidsim"},
	{"hostsim", "repro/internal/hostsim"},
	{"bench", "repro/internal/bench"},
	{"serve", "repro/internal/serve"},
	{"net_http", "net/http"},
}

// gcMallocRoots are the runtime functions whose cumulative time is the
// cost of allocation and garbage collection: the allocator (including the
// GC assists it performs) and the background collector goroutines.
var gcMallocRoots = []string{"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares aggregates a CPU profile by import path with go tool pprof and
// returns each share (0..1 of all samples) by metric name: one per
// cpuPackages entry plus gc_malloc.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat, cum, err := parsePprofTop(string(out))
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, p := range cpuPackages {
		shares[p.name] = flat[p.path]
	}
	for _, fn := range gcMallocRoots {
		shares["gc_malloc"] += cum[fn]
	}
	return shares, nil
}

// parsePprofTop reads `go tool pprof -top` output into flat shares summed
// by import path and cumulative shares by function.
func parsePprofTop(text string) (flatByPath, cumByFunc map[string]float64, err error) {
	flatByPath, cumByFunc = map[string]float64{}, map[string]float64{}
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := parsePercent(f[1])
		cum, err2 := parsePercent(f[4])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("pprof -top line %q: not flat%%/cum%% columns", line)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flatByPath[importPath(fn)] += flat
		cumByFunc[fn] += cum
	}
	if !inTable {
		return nil, nil, fmt.Errorf("pprof -top output has no table header")
	}
	return flatByPath, cumByFunc, nil
}

func parsePercent(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v / 100, err
}

// importPath returns the import path of a qualified function name such as
// repro/internal/sim.(*Engine).pop or net/http.(*conn).serve.
func importPath(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
