package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span layers, outermost first. A pass holds experiments and an
// experiment (one Sweep.Run) holds its points. The Table 5c replay is a
// trace of its own: the apps suite holds one span per application, which
// holds that application's mpisim replays. A served request is a span of
// its own under the serve-mix pass that sent it.
const (
	layerPass       = "pass"
	layerExperiment = "experiment"
	layerPoint      = "point"
	layerApps       = "apps"
	layerApp        = "app"
	layerReplay     = "replay"
	layerRequest    = "request"
)

// span is one interval recorded at a layer boundary by the benchmark's own
// code, around a call into the program.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"` // 0 for a root span
	Trace  int               `json:"trace"`  // shared by every span of one pass or request
	Layer  string            `json:"layer"`
	Name   string            `json:"name"`
	Tag    string            `json:"tag,omitempty"` // "warm" or "cold" on requests
	Start  time.Duration     `json:"start_ns"`      // host time since the run began
	End    time.Duration     `json:"end_ns"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths pass nil and pay one branch.
type recorder struct {
	clk   stopwatch
	mu    sync.Mutex // requests are recorded from several client goroutines
	spans []span
	trace int
}

func newRecorder(clk stopwatch) *recorder { return &recorder{clk: clk} }

// newTrace returns a fresh trace id for one pass or request.
func (r *recorder) newTrace() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace++
	return r.trace
}

// begin opens a span now and returns its id.
func (r *recorder) begin(trace, parent int, layer, name string) int {
	if r == nil {
		return 0
	}
	return r.add(span{Trace: trace, Parent: parent, Layer: layer, Name: name, Start: r.clk.elapsed()})
}

// end closes span id now.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	t := r.clk.elapsed()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// add records a complete span and returns its id.
func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// count attaches a count to span id.
func (r *recorder) count(id int, name string, v uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]uint64{}
	}
	s.Counts[name] += v
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval that its children cover. Overlapping
// children (concurrent requests) are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [from, to) the union of the spans' intervals
// covers.
func covered(from, to time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, from), min(k.End, to)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfPerTrace sums the self time of every span of the given layer within
// each trace and returns the per-trace sums in milliseconds, one entry per
// trace that has such spans.
func selfPerTrace(spans []span, layer string) []float64 {
	self := selfTimes(spans)
	sums := map[int]time.Duration{}
	var order []int
	for i, s := range spans {
		if s.Layer != layer {
			continue
		}
		if _, ok := sums[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += self[i]
	}
	out := make([]float64, len(order))
	for i, t := range order {
		out[i] = float64(sums[t]) / 1e6
	}
	return out
}
