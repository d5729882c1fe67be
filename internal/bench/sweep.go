package bench

import (
	"sync"
	"sync/atomic"

	"repro/internal/fattree"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/raidsim"
	"repro/internal/sim"
	"repro/internal/spctrace"
)

// Env is one sweep worker's reusable simulation environment. Building a
// cluster (nodes, resources, Portals NIs, HPU pools) costs far more
// allocations than simulating a measurement point on it, so Env caches one
// cluster per distinct (size, parameters) configuration and returns it
// Reset — back in its post-construction state — for every subsequent point
// that asks for the same configuration. Clusters produce bit-identical
// simulated times whether fresh or reset (see netsim.Cluster.Reset), which
// is what keeps sweep output byte-identical to the build-per-point path.
//
// An Env must only ever be used from one goroutine: the engine is
// single-threaded by design (determinism), and the sweep runner gives each
// worker its own Env. A nil *Env is valid and disables reuse — every
// cluster request builds from scratch, which is the behaviour of the
// exported single-point helpers (PingPongHalfRTT, BroadcastTime, ...) and
// of the determinism tests' fresh baseline.
type Env struct {
	clusters map[envKey]*envCluster
	// mpis and raids extend the same caching to the two trace-replay
	// engines, which own their clusters and carry protocol state of their
	// own: they are returned Reset (mpisim.Engine.Reset /
	// raidsim.System.Reset) under the same reset-equals-fresh contract.
	mpis  map[mpiKey]*mpisim.Engine
	raids map[raidKey]*raidsim.System
	// scratch is the grow-only host-memory arena hostMem carves from and
	// scratchOff the carve cursor, rewound by resetScratch at the start of
	// each measurement point that uses it.
	scratch    []byte
	scratchOff int
	// sink is the one grow-only deposit region sinkMem hands every
	// timing-only target, shared and never rewound.
	sink []byte
	// kids is the grow-only arena binomialKids carves child lists from,
	// likewise rewound per point.
	kids []int
	// mes and mesOff form the matching-entry arena behind allocME.
	mes    []portals.ME
	mesOff int
	// progs is the grow-only program buffer the Table 5c replays build rank
	// programs into (apps.App.ProgramsInto), so a sweep constructs op
	// slices once per worker instead of once per replay.
	progs *mpisim.ProgramBuffer

	// impair is the fault model installed on every cluster and mpisim
	// engine this Env hands out (nil = perfect network). A cached cluster
	// or engine gets the model installed afresh each time it is handed out
	// (an engine's Reset also re-derives its retry settings from it), which
	// restarts its fault schedule exactly as construction does, so both are
	// cached by configuration alone. raidsim is deliberately excluded: the
	// storage service has no recovery layer, so impairing it would only
	// wedge replays.
	impair *netsim.Impairment
	// noCache disables reuse while keeping the impairment plumbing: the
	// Fresh baseline of impaired determinism tests builds every system
	// from scratch but still needs the fault model applied.
	noCache bool
	// faultAcc accumulates fault counters harvested from cached systems
	// just before each Reset wipes them; FaultStats adds the live ones.
	faultAcc netsim.FaultStats
	// freshC and freshM retain impaired systems built on the noCache path,
	// which would otherwise be dropped before FaultStats could read their
	// counters. Only impaired noCache builds append here.
	freshC []*netsim.Cluster
	freshM []*mpisim.Engine
}

// envKey identifies a cluster configuration by value. netsim.Params is
// comparable except for the topology pointer, which is dereferenced so two
// Params that describe the same fat tree share a cached cluster even when
// built by separate netsim.Integrated()/Discrete() calls.
type envKey struct {
	n    int
	p    netsim.Params // Topo cleared; represented by topo below
	topo fattree.Topology
}

type envCluster struct {
	c   *netsim.Cluster
	nis []*portals.NI
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		clusters: make(map[envKey]*envCluster),
		mpis:     make(map[mpiKey]*mpisim.Engine),
		raids:    make(map[raidKey]*raidsim.System),
	}
}

// cluster returns a cluster of n nodes with parameters p, plus its Portals
// interfaces, under the Env's fault model. On a nil Env (or the first
// request for a configuration) it builds one; afterwards the cached cluster
// is returned reset.
func (e *Env) cluster(n int, p netsim.Params) (*netsim.Cluster, []*portals.NI, error) {
	var im *netsim.Impairment
	if e != nil {
		im = e.impair
	}
	return e.clusterUnder(n, p, im)
}

// clusterUnder is cluster with an explicit fault model (nil = perfect
// network), installed on every hand-out. A reset cluster with a model
// installed replays exactly the faults of a fresh one with that model
// (netsim.Cluster.ResetCore restarts the per-link packet sequences the
// faults are drawn from), so one cached cluster per configuration serves
// every model, and an experiment with a built-in fault schedule (ftbcast)
// never leaves it on a cluster a perfect-network experiment is handed.
func (e *Env) clusterUnder(n int, p netsim.Params, im *netsim.Impairment) (*netsim.Cluster, []*portals.NI, error) {
	if e == nil {
		c, err := netsim.NewCluster(n, p)
		if err != nil {
			return nil, nil, err
		}
		c.SetImpairment(im)
		attachTrace(c)
		return c, portals.Setup(c), nil
	}
	if e.noCache {
		c, err := netsim.NewCluster(n, p)
		if err != nil {
			return nil, nil, err
		}
		c.SetImpairment(im)
		if c.Impaired() {
			e.freshC = append(e.freshC, c)
		}
		return c, portals.Setup(c), nil
	}
	k := envKey{n: n, p: p, topo: *p.Topo}
	k.p.Topo = nil
	if ec, ok := e.clusters[k]; ok {
		e.faultAcc.Add(ec.c.Faults)
		ec.c.Reset()
		ec.c.SetImpairment(im)
		return ec.c, ec.nis, nil
	}
	c, err := netsim.NewCluster(n, p)
	if err != nil {
		return nil, nil, err
	}
	c.SetImpairment(im)
	ec := &envCluster{c: c, nis: portals.Setup(c)}
	e.clusters[k] = ec
	return ec.c, ec.nis, nil
}

// FaultStats returns every injected-fault and recovery counter this Env has
// seen: the accumulator of counters harvested before cache resets plus the
// live counters of cached systems. Sums are commutative, so the result is
// independent of map iteration order. Nil-safe.
func (e *Env) FaultStats() netsim.FaultStats {
	if e == nil {
		return netsim.FaultStats{}
	}
	s := e.faultAcc
	for _, ec := range e.clusters { //simlint:unordered-ok commutative counter sums; result independent of iteration order
		s.Add(ec.c.Faults)
	}
	for _, eng := range e.mpis { //simlint:unordered-ok commutative counter sums; result independent of iteration order
		s.Add(eng.C.Faults)
	}
	for _, c := range e.freshC {
		s.Add(c.Faults)
	}
	for _, eng := range e.freshM {
		s.Add(eng.C.Faults)
	}
	return s
}

// mpiKey identifies an mpisim engine configuration by value: rank count
// plus every comparable Config field, with the topology dereferenced like
// envKey. Configs with a Noise function are never cached (functions are not
// comparable, and noisy replays are rare enough to build fresh).
type mpiKey struct {
	n        int
	mode     mpisim.MatchMode
	eager    int
	recvPost sim.Time
	p        netsim.Params // Topo cleared; represented by topo below
	topo     fattree.Topology
}

// mpiEngine returns a replay engine for cfg primed with the given rank
// programs, under the Env's fault model. On a nil Env or a noisy config it
// builds one from scratch; otherwise the cached engine for (rank count,
// configuration) is returned Reset for the new program set and model — the
// replay-engine analogue of cluster.
func (e *Env) mpiEngine(cfg mpisim.Config, progs [][]mpisim.Op) (*mpisim.Engine, error) {
	if e != nil && e.impair != nil {
		cfg.Impair = e.impair // retry defaults are derived by mpisim.New and Reset
	}
	if e == nil || cfg.Noise != nil || e.noCache {
		eng, err := mpisim.New(cfg, progs)
		if err == nil && e != nil && e.noCache && e.impair != nil {
			e.freshM = append(e.freshM, eng)
		}
		return eng, err
	}
	k := mpiKey{
		n: len(progs), mode: cfg.Mode, eager: cfg.EagerThreshold,
		recvPost: cfg.RecvPostCost, p: cfg.Params, topo: *cfg.Params.Topo,
	}
	k.p.Topo = nil
	if eng, ok := e.mpis[k]; ok {
		e.faultAcc.Add(eng.C.Faults)
		if err := eng.Reset(progs, cfg.Impair); err != nil {
			return nil, err
		}
		return eng, nil
	}
	eng, err := mpisim.New(cfg, progs)
	if err != nil {
		return nil, err
	}
	e.mpis[k] = eng
	return eng, nil
}

// mpiRunner adapts mpiEngine to the program-set runner apps.Calibrate and
// RunApp consume: every invocation replays on the same cached engine.
func (e *Env) mpiRunner(cfg mpisim.Config) func(progs [][]mpisim.Op) (mpisim.Result, error) {
	return func(progs [][]mpisim.Op) (mpisim.Result, error) {
		eng, err := e.mpiEngine(cfg, progs)
		if err != nil {
			return mpisim.Result{}, err
		}
		return eng.Run()
	}
}

// raidKey identifies a RAID system configuration by value (same topology
// treatment as envKey).
type raidKey struct {
	p    netsim.Params // Topo cleared; represented by topo below
	topo fattree.Topology
	spin bool
}

// raidSystem returns a RAID-5 service for (p, spin). On a nil Env it builds
// one; otherwise the cached system is returned Reset, ready for its next
// trace replay.
func (e *Env) raidSystem(p netsim.Params, spin bool) (*raidsim.System, error) {
	if e == nil {
		return raidsim.New(p, spin)
	}
	k := raidKey{p: p, topo: *p.Topo, spin: spin}
	k.p.Topo = nil
	if sys, ok := e.raids[k]; ok {
		sys.Reset()
		return sys, nil
	}
	sys, err := raidsim.New(p, spin)
	if err != nil {
		return nil, err
	}
	e.raids[k] = sys
	return sys, nil
}

// replayTrace runs one SPC trace on the Env's cached RAID system (or a
// fresh one on a nil Env) and returns the total processing time.
func replayTrace(e *Env, p netsim.Params, spin bool, recs []spctrace.Record) (sim.Time, error) {
	sys, err := e.raidSystem(p, spin)
	if err != nil {
		return 0, err
	}
	return sys.Replay(recs)
}

// resetScratch rewinds the Env's point-scoped arenas (hostMem regions and
// binomialKids lists). Experiments that draw from either arena call it once
// at the start of each measurement point; regions carved before the rewind
// must no longer be in use. Nil-safe.
func (e *Env) resetScratch() {
	if e != nil {
		e.scratchOff = 0
		e.kids = e.kids[:0]
		e.mesOff = 0
	}
}

// allocME returns a zeroed matching entry from the Env's grow-only arena.
// Entries are valid for the current measurement point: rewinding the arena
// reuses their slots, which is safe because the only references that
// outlive a point live in portal-table lists of Env-cached clusters, and
// those lists are truncated (without dereferencing the entries) by the
// cluster Reset that precedes any reuse. A nil Env allocates fresh. Like
// hostMem, growing the arena leaves earlier entries on the old backing
// array, so live pointers never move.
func (e *Env) allocME() *portals.ME {
	if e == nil {
		return new(portals.ME)
	}
	if e.mesOff == len(e.mes) {
		grow := 2 * len(e.mes)
		if grow < 64 {
			grow = 64
		}
		e.mes = make([]portals.ME, grow)
		e.mesOff = 0
	}
	me := &e.mes[e.mesOff]
	e.mesOff++
	*me = portals.ME{}
	return me
}

// hostMem returns an n-byte scratch host-memory region, carved from a
// grow-only per-Env arena instead of allocated per measurement point.
// Contents are unspecified on return. Regions are valid for the current
// point (until the next resetScratch) and never alias one another, so a
// caller may write bytes and read them back later in the point (ftbcast's
// root payloads are re-read by every retransmission). A nil Env allocates
// fresh, like every other Env helper. When the arena must grow mid-point,
// previously carved regions keep the old backing array, so they stay valid
// and distinct. Deposit targets whose bytes nothing reads use sinkMem.
func (e *Env) hostMem(n int) []byte {
	if e == nil {
		return make([]byte, n)
	}
	need := e.scratchOff + n
	if cap(e.scratch) < need {
		grow := 2 * cap(e.scratch)
		if grow < n {
			grow = n
		}
		e.scratch = make([]byte, grow)
		e.scratchOff = 0
		need = n
	}
	s := e.scratch[e.scratchOff:need:need]
	e.scratchOff = need
	return s
}

// sinkMem returns an n-byte deposit region for timing-only targets: MEs
// whose deposited bytes no simulated time depends on. Every call returns
// the start of the same per-Env region, so regions alias each other and
// their contents are whatever the last writer left. That is safe because
// the cost of a deposit or forward depends on lengths and offsets, never
// on the bytes. The region grows geometrically, so a sweep whose deposit
// size creeps up (fig7a's 8 MiB plus one block) reallocates only a few
// times. A nil Env allocates fresh.
func (e *Env) sinkMem(n int) []byte {
	if e == nil {
		return make([]byte, n)
	}
	if cap(e.sink) < n {
		e.sink = make([]byte, max(2*cap(e.sink), n))
	}
	return e.sink[:n:n]
}

// programBuffer returns the Env's grow-only mpisim program buffer (nil on
// a nil Env — apps.App.ProgramsInto then builds fresh storage, the
// pre-reuse behaviour).
func (e *Env) programBuffer() *mpisim.ProgramBuffer {
	if e == nil {
		return nil
	}
	if e.progs == nil {
		e.progs = new(mpisim.ProgramBuffer)
	}
	return e.progs
}

// Sweep is a deterministic sweep runner: an experiment registers its
// measurement points in output order, and Run executes them either serially
// on one Env or as queued tasks on a Pool, whose workers each own one Env
// (and therefore one engine per cluster configuration), so each engine
// stays single-threaded. Rows are merged back in point order, so the
// resulting table is byte-identical no matter which worker ran which
// point. Each point is an independent simulation (its cluster is reset to
// the post-construction state first), which is what makes this sound.
type Sweep struct {
	table  *Table
	points []func(e *Env) ([][]string, error)

	// faults accumulates the counters of every worker's Env after a run
	// under a fault model (RunOptions.Impairment); the counter sums are
	// order-independent, so they do not depend on which worker ran a point.
	faults netsim.FaultStats
}

// NewSweep returns a sweep that will fill t's rows.
func NewSweep(t *Table) *Sweep { return &Sweep{table: t} }

// Faults returns the fault/recovery counters accumulated by the last run.
func (s *Sweep) Faults() netsim.FaultStats { return s.faults }

// Header returns the column names of the table this sweep fills. It is
// valid before Run — the registry's metadata drift test compares it against
// Experiment.Columns.
func (s *Sweep) Header() []string { return s.table.Header }

// Points returns the number of registered measurement points; Run reports
// progress against this total.
func (s *Sweep) Points() int { return len(s.points) }

// Point appends one measurement point producing zero or more table rows.
func (s *Sweep) Point(fn func(e *Env) ([][]string, error)) {
	s.points = append(s.points, fn)
}

// Row is Point for the common case of exactly one row per point.
func (s *Sweep) Row(fn func(e *Env) ([]string, error)) {
	s.Point(func(e *Env) ([][]string, error) {
		row, err := fn(e)
		if err != nil {
			return nil, err
		}
		return [][]string{row}, nil
	})
}

// RunOptions selects how Run executes a sweep. The zero value runs
// serially, with cluster reuse, on a perfect network. Exactly one execution
// shape applies, chosen in this order: Fresh (serial, no reuse), Pool
// (queued tasks on a shared pool), serial.
type RunOptions struct {
	// Fresh disables cluster reuse: every point builds its system from
	// scratch, serially — the from-scratch baseline the determinism
	// goldens compare against.
	Fresh bool
	// Impairment installs a fault model for the whole run (nil or a
	// disabled impairment = perfect network). Output stays byte-identical
	// across serial, pool, fresh, and Reset-reuse runs for a fixed
	// impairment.
	Impairment *netsim.Impairment
	// Pool, when non-nil, executes every point as a queued task on the
	// shared persistent worker pool instead of spawning goroutines: the
	// pool's long-lived Envs carry their cluster caches across runs, and
	// its worker count — not this sweep's — bounds execution. Output is
	// byte-identical to every other execution shape because points are
	// hermetic (reset == fresh) and rows merge in point order.
	Pool *Pool
	// Progress, when non-nil, is called after each point completes with
	// the number of completed points and the total. It may be called from
	// worker goroutines concurrently; it must not touch simulation state.
	Progress func(done, total int)
}

// Run executes every point under opts and returns the completed table. On
// error the earliest-indexed error is returned. Every shape runs every
// point, failing or not, so the error and Faults agree across shapes too.
// Successful output is byte-identical across all execution shapes: rows
// merge in point registration order, and each point is an independent
// simulation under the reset-equals-fresh contract.
func (s *Sweep) Run(opts RunOptions) (*Table, error) {
	im := opts.Impairment
	if !im.Enabled() {
		im = nil
	}
	rows := make([][][]string, len(s.points))
	errs := make([]error, len(s.points))
	s.faults = netsim.FaultStats{}
	var done atomic.Int64
	progress := func() {
		if opts.Progress != nil {
			opts.Progress(int(done.Add(1)), len(s.points))
		}
	}
	if !opts.Fresh && opts.Pool != nil {
		// Queued tasks on the persistent pool: whichever worker dequeues a
		// point runs it on its long-lived Env. Fault counters are charged
		// per point by snapshot delta, so concurrent sweeps sharing the
		// pool each see exactly their own faults.
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := range s.points {
			wg.Add(1)
			point := s.points[i]
			out := i
			opts.Pool.submit(func(e *Env) {
				defer wg.Done()
				e.impair = im
				before := e.FaultStats()
				rows[out], errs[out] = point(e)
				delta := e.FaultStats().Sub(before)
				mu.Lock()
				s.faults.Add(delta)
				mu.Unlock()
				progress()
			})
		}
		wg.Wait()
	} else {
		var e *Env
		if !opts.Fresh {
			e = NewEnv()
		} else if im != nil {
			// The from-scratch baseline still needs the fault model: a
			// no-cache Env applies it without reusing anything.
			e = NewEnv()
			e.noCache = true
		}
		if e != nil {
			e.impair = im
		}
		for i, fn := range s.points {
			rows[i], errs[i] = fn(e)
			progress()
		}
		s.faults.Add(e.FaultStats())
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, rs := range rows {
		s.table.Rows = append(s.table.Rows, rs...)
	}
	return s.table, nil
}
