package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Trace: 1, Layer: layerPass, Start: 0, End: 100 * ms},
		// Overlapping children cover [10, 40); one runs past the parent's end.
		{ID: 2, Parent: 1, Trace: 1, Layer: layerExperiment, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Trace: 1, Layer: layerExperiment, Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Trace: 1, Layer: layerExperiment, Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Trace: 1, Layer: layerPoint, Start: 12 * ms, End: 18 * ms},
		// A second trace.
		{ID: 6, Trace: 2, Layer: layerPass, Start: 200 * ms, End: 250 * ms},
	}
	want := []time.Duration{60 * ms, 14 * ms, 20 * ms, 30 * ms, 6 * ms, 50 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	perTrace := selfPerTrace(spans, layerPass)
	if len(perTrace) != 2 || perTrace[0] != 60 || perTrace[1] != 50 {
		t.Errorf("pass self per trace = %v ms, want [60 50]", perTrace)
	}
	if exp := selfPerTrace(spans, layerExperiment); len(exp) != 1 || exp[0] != 64 {
		t.Errorf("experiment self per trace = %v ms, want [64]", exp)
	}
}

func TestRecorderNests(t *testing.T) {
	rec := newRecorder(start())
	tr := rec.newTrace()
	outer := rec.begin(tr, 0, layerPass, "pass")
	inner := rec.begin(tr, outer, layerExperiment, "fig4")
	rec.count(inner, "events", 3)
	rec.end(inner)
	rec.end(outer)
	if len(rec.spans) != 2 || rec.spans[1].Parent != outer || rec.spans[1].Counts["events"] != 3 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	var none *recorder // untraced code paths record nothing
	if id := none.begin(none.newTrace(), 0, layerPass, "pass"); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	none.end(0)
}
