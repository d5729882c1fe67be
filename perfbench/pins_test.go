package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
)

func regenerate(t *testing.T, id string, scale int) []byte {
	t.Helper()
	e, ok := bench.FindExperiment(id)
	if !ok {
		t.Fatalf("experiment %s not in the registry", id)
	}
	tab, err := e.Build(scale).Run(bench.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.CSV(&buf)
	return buf.Bytes()
}

func TestDigestCheckFiresOnOneFlippedByte(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	csv := regenerate(t, "fig4", 4)
	if err := p.check("fig4", 4, csv); err != nil {
		t.Fatalf("fresh regeneration fails its pin: %v", err)
	}
	for _, i := range []int{0, len(csv) / 2, len(csv) - 1} {
		bad := append([]byte(nil), csv...)
		bad[i] ^= 0x01
		if err := p.check("fig4", 4, bad); err == nil {
			t.Errorf("flipping byte %d of %d went unnoticed", i, len(csv))
		}
	}
	if err := p.check("fig4", 8, csv); err == nil {
		t.Error("a scale with no pin passed the check")
	}
}

func TestPinsCoverEveryExperiment(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range bench.Experiments() {
		if _, ok := p[pinKey{e.ID, 4}]; !ok {
			t.Errorf("%s has no pinned digest at scale 4", e.ID)
		}
	}
	if _, err := parsePins("fig4 x 00"); err == nil {
		t.Error("a malformed pin line parsed")
	}
}

func TestJitterInvariants(t *testing.T) {
	ref := table5cScale8
	if err := checkJitterInvariants(ref, ref); err != nil {
		t.Fatalf("the reference fails its own invariants: %v", err)
	}
	// Timing columns may change under impairment.
	lines := strings.Split(string(ref), "\n")
	cells := strings.Split(lines[1], ",")
	cells[4] = "99.9%"
	lines[1] = strings.Join(cells, ",")
	if err := checkJitterInvariants(ref, []byte(strings.Join(lines, "\n"))); err != nil {
		t.Errorf("a changed spdup cell failed the invariants: %v", err)
	}
	// The message count may not.
	cells[2] += "1"
	lines[1] = strings.Join(cells, ",")
	if err := checkJitterInvariants(ref, []byte(strings.Join(lines, "\n"))); err == nil {
		t.Error("a changed msgs cell passed the invariants")
	}
	if err := checkJitterInvariants(ref, []byte(strings.Join(lines[:3], "\n"))); err == nil {
		t.Error("a missing row passed the invariants")
	}
}

// An experiment that fails counts as failed, and the pass goes on: fig5a
// under loss never completes its broadcast, fig4 after it still runs.
func TestFailureIsCountedNotFatal(t *testing.T) {
	exps, err := selectExperiments("fig5a", "fig4")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	w := &simWorkload{exps: exps, scale: 4,
		check: func(exp string, csv []byte) error { return p.check(exp, 4, csv) }}
	w.impair, err = netsim.ParseImpairment("loss=0.01,jitter=2us,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	ps := w.pass(nil)
	if len(ps.runs) != 2 {
		t.Fatalf("%d experiments ran, want 2", len(ps.runs))
	}
	if err := ps.runs[0].err; err == nil || !strings.Contains(err.Error(), "never completed") {
		t.Errorf("fig5a under loss: err = %v, want a broadcast that never completed", err)
	}
	if err := ps.runs[1].err; err != nil {
		t.Errorf("fig4 after the failure: %v", err)
	}
	rep := newReport(nil)
	countRuns(rep, ps)
	if rep.attempted != 2 || rep.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2 and 1", rep.attempted, rep.failed)
	}
}
