package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// This file holds every host-side measurement the benchmark makes: the
// wall clock, the Go heap's allocation counters, and the process's peak
// resident set. Everything the benchmark times goes through these helpers,
// so the wall-clock sites of the package are all in one place.

// stopwatch measures host time from the moment start is called: one
// interval (sw := start(); ...; d := sw.elapsed()), or the timestamps of a
// whole run, taken as the time elapsed since the run began.
type stopwatch struct{ t time.Time }

func start() stopwatch { return stopwatch{t: time.Now()} }

func (s stopwatch) elapsed() time.Duration { return time.Since(s.t) }

// heapCounters is a snapshot of the Go runtime's cumulative allocation
// counters.
type heapCounters struct {
	mallocs uint64 // heap objects allocated
	bytes   uint64 // heap bytes allocated
}

// readHeap snapshots the cumulative allocation counters. It stops the world
// briefly, so callers read it outside timed intervals.
func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// sub returns the allocations made between earlier and h.
func (h heapCounters) sub(earlier heapCounters) heapCounters {
	return heapCounters{mallocs: h.mallocs - earlier.mallocs, bytes: h.bytes - earlier.bytes}
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB
// (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}
