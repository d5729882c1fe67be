package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/serve"
)

// serve-mix shape. A pass is one server life: set up a fresh server, send
// passSize requests, coldPerPass of them cold (10%) at seeded positions,
// and stop it. A server serves only one pass because every impairment seed
// it sees adds clusters to its pool workers' caches that are never freed
// (about 1.5 MB of heap per cold request); a server living for the whole
// run would exhaust the host's memory.
const (
	serveClients = 2
	passSize     = 800
	coldPerPass  = 80
	// coldChecks is how many cold responses, spread evenly over the run,
	// are regenerated directly after the timed loop and compared.
	coldChecks = 24
	// serveScale is the scale every request asks for, clamped per
	// experiment by requestScale.
	serveScale = 4
)

// coldExperiments are the experiments cold requests draw from; each cold
// request carries a jitter impairment with a seed never used before, so it
// misses the cache and runs on the pool.
var coldExperiments = []string{"fig3b", "fig3c", "fig3d", "fig7c", "noise"}

// mixRequest is one planned request of the mix.
type mixRequest struct {
	exp    bench.Experiment
	scale  int
	impair string // "" for warm requests
	format string
	body   string
}

func (r mixRequest) cold() bool { return r.impair != "" }

// mixResult is what one request measured.
type mixResult struct {
	req     mixRequest
	start   time.Duration
	latency time.Duration
	csvSum  string // cold requests: digest of the CSV the response carries
	err     error
}

// serveMix is one spinserve handler served on a loopback listener, with
// its warm keys prewarmed and verified.
type serveMix struct {
	clk     stopwatch
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client
	warm    []mixRequest
	cold    []bench.Experiment
	// verified maps a warm request body to the digest of the response body
	// that was checked against the pinned CSV digest during prewarm.
	verified map[string]string
}

// requestScale is the scale a request for e asks for: the workload scale,
// clamped to what the registry admits (scale-free experiments take 1 and
// print the same table).
func requestScale(e bench.Experiment, scale int) int {
	return min(max(scale, e.MinScale), e.MaxScale)
}

func newMixRequest(e bench.Experiment, impair, format string) mixRequest {
	r := mixRequest{exp: e, scale: requestScale(e, serveScale), impair: impair, format: format}
	b, _ := json.Marshal(serve.Request{Experiment: e.ID, Scale: r.scale, Impair: impair, Format: format}) // a struct of strings and ints always encodes
	r.body = string(b)
	return r
}

// newServeMix performs one set-up of serve-mix: construct the server, start
// it on a loopback listener, and prewarm and verify every warm key.
func newServeMix(clk stopwatch) (*serveMix, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	exps, err := selectExperiments(nicSuiteIDs()...)
	if err != nil {
		return nil, err
	}
	cold, err := selectExperiments(coldExperiments...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve-mix listener: %w", err)
	}
	m := &serveMix{
		clk:      clk,
		cold:     cold,
		srv:      serve.New(serve.Config{}),
		served:   make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		verified: map[string]string{},
	}
	m.hs = &http.Server{Handler: m.srv}
	go func() { m.served <- m.hs.Serve(ln) }()
	for i := 0; i < serveClients; i++ {
		// One keep-alive connection per client.
		m.clients = append(m.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	if err := m.prewarm(p, exps); err != nil {
		_ = m.close() // the prewarm error is the one to report
		return nil, err
	}
	return m, nil
}

// prewarm requests every warm key once, checks each answer against its
// pinned digest, and remembers the verified bytes.
func (m *serveMix) prewarm(p pins, exps []bench.Experiment) error {
	for _, e := range exps {
		for _, f := range []string{"csv", "json"} {
			r := newMixRequest(e, "", f)
			body, err := m.post(m.clients[0], r.body)
			if err == nil {
				var csv []byte
				if csv, err = responseCSV(r.format, body); err == nil {
					err = p.check(e.ID, serveScale, csv)
				}
			}
			if err != nil {
				return fmt.Errorf("prewarm %s %s: %w", e.ID, f, err)
			}
			m.verified[r.body] = digest(body)
			m.warm = append(m.warm, r)
		}
	}
	return nil
}

// close stops the HTTP server, waits for it, and drains the worker pool.
func (m *serveMix) close() error {
	err := m.hs.Shutdown(context.Background())
	if serr := <-m.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range m.clients {
		c.CloseIdleConnections()
	}
	m.srv.Close()
	return err
}

// post sends one /run request and returns the body of a 200 answer.
func (m *serveMix) post(c *http.Client, body string) ([]byte, error) {
	resp, err := c.Post(m.base+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// responseCSV returns the CSV a /run answer carries: the body itself, or
// the table of a JSON answer rendered by bench.Table.CSV.
func responseCSV(format string, body []byte) ([]byte, error) {
	if format == "csv" {
		return body, nil
	}
	var t struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, fmt.Errorf("decoding JSON result: %w", err)
	}
	var buf bytes.Buffer
	(&bench.Table{Header: t.Header, Rows: t.Rows}).CSV(&buf)
	return buf.Bytes(), nil
}

// planPass draws one pass of the mix: passSize requests, coldPerPass of
// them cold, each cold one with an impairment seed never used before in
// the run (coldSeq counts them across passes).
func (m *serveMix) planPass(rng *rand.Rand, seed int64, coldSeq *uint64) []mixRequest {
	out := make([]mixRequest, passSize)
	cold := rng.Perm(passSize)[:coldPerPass]
	isCold := map[int]bool{}
	for _, i := range cold {
		isCold[i] = true
	}
	for i := range out {
		if !isCold[i] {
			out[i] = m.warm[rng.Intn(len(m.warm))]
			continue
		}
		e := m.cold[rng.Intn(len(m.cold))]
		*coldSeq++
		format := "csv"
		if rng.Intn(2) == 1 {
			format = "json"
		}
		out[i] = newMixRequest(e, fmt.Sprintf("jitter=2us,seed=%d", uint64(seed)<<24+*coldSeq), format)
	}
	return out
}

// sendAll sends a pass's requests from serveClients closed-loop clients: each
// client sends its next request only once the previous answer has fully
// arrived. With a recorder, the pass and each request are spans.
func (m *serveMix) sendAll(reqs []mixRequest, rec *recorder) []mixResult {
	out := make([]mixResult, len(reqs))
	passSpan := rec.begin(rec.newTrace(), 0, layerPass, "pass")
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range m.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = m.send(c, reqs[i], rec, passSpan)
			}
		}()
	}
	wg.Wait()
	rec.end(passSpan)
	return out
}

// send times one request from send to last byte and checks the answer: a
// warm answer must be the verified bytes, a cold one is reduced to the
// digest of its CSV for the direct comparison after the loop.
func (m *serveMix) send(c *http.Client, r mixRequest, rec *recorder, parent int) mixResult {
	res := mixResult{req: r, start: m.clk.elapsed()}
	body, err := m.post(c, r.body)
	res.latency = m.clk.elapsed() - res.start
	if rec != nil {
		tag := "warm"
		if r.cold() {
			tag = "cold"
		}
		rec.add(span{Trace: rec.newTrace(), Parent: parent, Layer: layerRequest, Name: r.exp.ID,
			Tag: tag, Start: res.start, End: res.start + res.latency})
	}
	switch {
	case err != nil:
		res.err = fmt.Errorf("%s: %w", r.body, err)
	case !r.cold():
		if digest(body) != m.verified[r.body] {
			res.err = fmt.Errorf("%s: warm answer differs from the verified bytes", r.body)
		}
	default:
		csv, err := responseCSV(r.format, body)
		if err != nil {
			res.err = fmt.Errorf("%s: %w", r.body, err)
		}
		res.csvSum = digest(csv)
	}
	return res
}

// checkCold regenerates the given cold requests directly with Sweep.Run
// and compares each against the CSV the service answered. It returns the
// mismatches and, per matching request, the service latency minus the
// direct run's host time.
func checkCold(results []mixResult) (overheadMS []float64, errs []error) {
	for _, r := range results {
		im, err := netsim.ParseImpairment(r.req.impair)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		sw := start()
		tab, err := r.req.exp.Build(r.req.scale).Run(bench.RunOptions{Impairment: im})
		direct := sw.elapsed()
		if err != nil {
			errs = append(errs, fmt.Errorf("direct %s: %w", r.req.body, err))
			continue
		}
		var buf bytes.Buffer
		tab.CSV(&buf)
		if digest(buf.Bytes()) != r.csvSum {
			errs = append(errs, fmt.Errorf("%s: cold answer differs from a direct Sweep.Run", r.req.body))
			continue
		}
		overheadMS = append(overheadMS, float64(r.latency-direct)/1e6)
	}
	return overheadMS, errs
}

// serveStats is the part of GET /stats the benchmark reads.
type serveStats struct {
	Hits      uint64 `json:"cache_hits"`
	Misses    uint64 `json:"cache_misses"`
	Coalesced uint64 `json:"coalesced"`
	Faults    struct {
		Delayed      uint64 `json:"delayed"`
		Retransmits  uint64 `json:"retransmits"`
		RetransFails uint64 `json:"retrans_failures"`
	} `json:"faults"`
}

func (m *serveMix) stats() (serveStats, error) {
	var s serveStats
	resp, err := m.clients[0].Get(m.base + "/stats")
	if err != nil {
		return s, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("GET /stats: %w", err)
	}
	return s, nil
}

// servePass is what one serve-mix pass measured.
type servePass struct {
	setup   time.Duration // server construction and prewarm
	wall    time.Duration // sending the pass's requests
	heap    heapCounters  // allocated while sending them
	results []mixResult
	stats   serveStats // counter increments over the requests
}

// runServePass sets up a fresh server, sends one planned pass of requests
// to it, and stops it.
func runServePass(clk stopwatch, reqs func(m *serveMix) []mixRequest, rec *recorder) (p servePass, err error) {
	sw := start()
	m, err := newServeMix(clk)
	if err != nil {
		return p, fmt.Errorf("set-up: %w", err)
	}
	p.setup = sw.elapsed()
	defer func() {
		if cerr := m.close(); cerr != nil && err == nil {
			err = fmt.Errorf("stopping the server: %w", cerr)
		}
	}()
	plan := reqs(m)
	st0, err := m.stats()
	if err != nil {
		return p, err
	}
	// Collect the servers of earlier passes, so their garbage neither
	// inflates peak memory nor costs this pass a collection.
	runtime.GC()
	h0 := readHeap()
	sw = start()
	p.results = m.sendAll(plan, rec)
	p.wall = sw.elapsed()
	p.heap = readHeap().sub(h0)
	st1, err := m.stats()
	if err != nil {
		return p, err
	}
	p.stats = st1.sub(st0)
	return p, nil
}

func (s serveStats) sub(b serveStats) serveStats {
	s.Hits -= b.Hits
	s.Misses -= b.Misses
	s.Coalesced -= b.Coalesced
	s.Faults.Delayed -= b.Faults.Delayed
	s.Faults.Retransmits -= b.Faults.Retransmits
	s.Faults.RetransFails -= b.Faults.RetransFails
	return s
}

// runServeMix runs the serve-mix workload: passes, each on a fresh server,
// until the budget is spent. A traced run alternates traced and untraced
// passes.
func runServeMix(o options, clk stopwatch, budget time.Duration, rep *report) error {
	var rec *recorder
	var t5c []byte
	if o.trace {
		rec = newRecorder(clk)
		if err := layerProbes(rep, o.seed); err != nil {
			return err
		}
		var err error
		if t5c, err = benchOneShot(rep, nil); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	var coldSeq uint64
	plan := func(m *serveMix) []mixRequest { return m.planPass(rng, o.seed, &coldSeq) }
	var passes []servePass
	var traced []bool
	var passErr error
	loop := func() {
		timedLoop(budget, 3, func(i int) time.Duration {
			if passErr != nil {
				return budget
			}
			r := rec
			if i%2 == 0 {
				r = nil
			}
			p, err := runServePass(clk, plan, r)
			if err != nil {
				passErr = err
				return budget
			}
			passes = append(passes, p)
			traced = append(traced, r != nil)
			return p.setup + p.wall
		})
	}
	var shares map[string]float64
	if o.trace {
		var err error
		if shares, err = profiled(o, loop); err != nil {
			return err
		}
	} else {
		loop()
	}
	if passErr != nil {
		return passErr
	}

	var setups, walls, tracedWalls, plainWalls, warmMS, coldMS, allMS []float64
	var cold []mixResult
	var heap heapCounters
	var st serveStats
	for i, p := range passes {
		setups = append(setups, p.setup.Seconds())
		walls = append(walls, p.wall.Seconds())
		if traced[i] {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
		} else {
			plainWalls = append(plainWalls, p.wall.Seconds())
		}
		heap.mallocs += p.heap.mallocs
		heap.bytes += p.heap.bytes
		st.Hits += p.stats.Hits
		st.Misses += p.stats.Misses
		st.Coalesced += p.stats.Coalesced
		st.Faults.Delayed += p.stats.Faults.Delayed
		st.Faults.Retransmits += p.stats.Faults.Retransmits
		st.Faults.RetransFails += p.stats.Faults.RetransFails
		errs := make([]error, len(p.results))
		for j, r := range p.results {
			errs[j] = r.err
			ms := float64(r.latency.Nanoseconds()) / 1e6
			allMS = append(allMS, ms)
			if !r.req.cold() {
				warmMS = append(warmMS, ms)
				continue
			}
			coldMS = append(coldMS, ms)
			if r.err == nil {
				cold = append(cold, r)
			}
		}
		rep.outcome(len(p.results), errs...)
	}
	// Check an evenly spaced, seeded sample of the cold answers.
	stride := max(1, len(cold)/coldChecks)
	var sample []mixResult
	for i := rng.Intn(stride); i < len(cold) && len(sample) < coldChecks; i += stride {
		sample = append(sample, cold[i])
	}
	overheadMS, coldErrs := checkCold(sample)
	rep.outcome(0, coldErrs...)
	rep.note("cold answers checked against a direct Sweep.Run: %d of %d, %d differ", len(sample), len(coldMS), len(coldErrs))
	lookups := float64(st.Hits + st.Misses + st.Coalesced)
	rep.note("cache: %d hits, %d misses, %d coalesced; hit ratio %.4f", st.Hits, st.Misses, st.Coalesced, float64(st.Hits)/lookups)
	rep.noteSummary("warm latency", "ms", summarize(warmMS))
	rep.noteSummary("cold latency", "ms", summarize(coldMS))
	rep.noteSummary("set-up per pass", "s", summarize(setups))
	ws := summarize(walls)
	rep.noteSummary("wall per pass", "s", ws)
	n := float64(len(allMS))

	if !o.trace {
		rep.set("wall_s", ws.median)
		rep.set("setup_s", summarize(setups).median)
		rep.set("allocs", float64(heap.mallocs)/n)
		rep.set("alloc_mb", float64(heap.bytes)/1e6/n)
		all := summarize(allMS)
		rep.noteSummary("latency per request", "ms", all)
		rep.set("p50_ms", all.median)
		rep.set("tail_ms", all.tail)
		rep.set("throughput_ops", passSize/ws.median)
		return setRSS(rep)
	}

	setShares(rep, shares)
	rep.set("trace.overhead_frac", summarize(tracedWalls).median/summarize(plainWalls).median-1)
	rep.set("serve.hit_ratio", float64(st.Hits)/lookups)
	rep.set("serve.cold_overhead_ms", summarize(overheadMS).median)
	var warmSpans, coldSpans []float64
	for _, s := range rec.spans {
		ms := float64((s.End - s.Start).Nanoseconds()) / 1e6
		switch {
		case s.Layer != layerRequest:
		case s.Tag == "cold":
			coldSpans = append(coldSpans, ms)
		default:
			warmSpans = append(warmSpans, ms)
		}
	}
	wsp, csp := summarize(warmSpans), summarize(coldSpans)
	rep.set("serve.warm_p50_ms", wsp.median)
	rep.set("serve.warm_tail_ms", wsp.tail)
	rep.set("serve.cold_p50_ms", csp.median)
	rep.set("serve.cold_tail_ms", csp.tail)
	np := float64(len(passes))
	rep.set("netsim.delayed", float64(st.Faults.Delayed)/np)
	rep.set("netsim.retransmits", float64(st.Faults.Retransmits)/np)
	rep.set("netsim.retrans_failures", float64(st.Faults.RetransFails)/np)
	setReplay(rep, replayTotals{})
	if err := setSpdupError(rep, t5c); err != nil {
		return err
	}
	return finishSpans(rep, o, rec)
}
