// Package mpisim implements the §5.1 message-matching study: MPI-style
// rank programs (compute phases + nonblocking halo exchanges) replayed over
// the simulated network with two protocol engines:
//
//   - HostMatching — the RDMA baseline: eager messages always bounce
//     through a staging buffer and are copied by the CPU; rendezvous
//     transfers require the receiving CPU to be inside an MPI call to
//     progress (synchronous progression), so RTS packets arriving during
//     compute wait for the next MPI entry.
//   - SpinMatching — the paper's offloaded protocol: the NIC matches in
//     hardware; pre-posted receives deposit directly (no copy, case I/II of
//     Fig. 5b), and the rendezvous header handler issues the get
//     immediately, giving fully asynchronous progress.
//
// The engine measures total runtime and the time ranks spend blocked in
// MPI, which yields Table 5c's overhead and speedup columns.
//
// Engines are reusable: Reset returns an engine to its post-construction
// state for a new program set on the same cluster, and all per-message
// protocol state (requests, arrivals, wire messages) is drawn from
// engine-owned free lists, so a steady-state replay allocates almost
// nothing. See Reset for the determinism contract.
package mpisim

import (
	"fmt"

	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/sim"
)

// MatchMode selects the protocol engine.
type MatchMode int

const (
	// HostMatching is the CPU-driven baseline.
	HostMatching MatchMode = iota
	// SpinMatching is the sPIN-offloaded protocol.
	SpinMatching
)

func (m MatchMode) String() string {
	if m == SpinMatching {
		return "sPIN"
	}
	return "host"
}

// OpKind enumerates program operations.
type OpKind int

// Program operations.
const (
	OpCompute OpKind = iota
	OpIsend
	OpIrecv
	OpWaitAll
)

// Op is one step of a rank program.
type Op struct {
	Kind OpKind
	Dur  sim.Time // OpCompute
	Peer int      // OpIsend / OpIrecv
	Tag  uint64
	Size int
}

// Config parameterizes a replay.
type Config struct {
	Params netsim.Params
	Mode   MatchMode
	// EagerThreshold splits eager from rendezvous transfers.
	EagerThreshold int
	// Noise optionally injects OS noise into host CPU work. It is invoked
	// once per rank at construction time; the resulting models are reused
	// for every compute phase and every Reset (noise.Model is stateless, so
	// reuse is simulation-identical to rebuilding).
	Noise func(rank int) *noise.Model
	// RecvPostCost is the CPU cost of posting a receive.
	RecvPostCost sim.Time

	// Impair optionally installs a fault model on the cluster (see
	// netsim.Impairment). An impaired replay needs recovery: New enables
	// rendezvous-control retry (RetryTimeout defaulted if unset) and forces
	// every send through the rendezvous protocol, whose control messages
	// (RTS, pull, data) are all covered by the retry machinery — eager
	// sends have no recovery path. Reset may install a different model.
	Impair *netsim.Impairment
	// RetryTimeout is the initial and minimum retransmission timeout (RTO)
	// of a rank's rendezvous control timers; 0 disables retry. Each rank
	// estimates its RTO from the round trips of first copies (RTS→ack,
	// pull→data) as RFC 6298 does: RTO = max(RetryTimeout, SRTT + 4·RTTVAR), doubled on every RTS
	// timeout up to maxBackoff × RetryTimeout and kept doubled until the
	// next valid sample. An RTS waits one RTO for the peer NIC's ack; a
	// pull waits one RTO plus the serialization time of the data it asks
	// for, and its timeouts leave the RTO as it is.
	RetryTimeout sim.Time
	// MaxRetries bounds resends per RTS and per pull (16 when retry is on
	// and it is unset). An exchange that exhausts its budget stops
	// progressing and surfaces as a deadlock from Run. An acked RTS spends
	// no more of it, however long the receiver takes to post its receive.
	MaxRetries int
}

// DefaultRetryTimeout is the initial and minimum RTO installed by New (and
// Reset) when a fault model is configured without an explicit
// RetryTimeout. It comfortably exceeds the round trip of a control exchange
// at the paper's parameters; the per-rank estimator raises it when the
// network's delay does not.
const DefaultRetryTimeout = 20 * sim.Microsecond

// maxBackoff caps exponential backoff: a rank's RTO never exceeds
// maxBackoff × RetryTimeout.
const maxBackoff = 64

// withRetryDefaults fills in the retry settings an impaired replay needs:
// RetryTimeout under an enabled fault model, MaxRetries whenever retry is
// on.
func (cfg Config) withRetryDefaults() Config {
	if cfg.Impair.Enabled() && cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = DefaultRetryTimeout
	}
	if cfg.RetryTimeout > 0 && cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 16
	}
	return cfg
}

// DefaultConfig returns the configuration used for Table 5c.
func DefaultConfig(mode MatchMode) Config {
	return Config{
		Params:         netsim.Discrete(),
		Mode:           mode,
		EagerThreshold: 8192,
		RecvPostCost:   50 * sim.Nanosecond,
	}
}

// Result summarizes one replay.
type Result struct {
	Runtime sim.Time
	// MPITime is the summed per-rank time blocked in MPI waits.
	MPITime sim.Time
	// Messages counts application messages (sends).
	Messages uint64
	// Events counts simulator events processed.
	Events uint64
	// Copies counts CPU bounce-buffer copies performed.
	Copies uint64
	// Retransmits counts rendezvous control messages resent under
	// impairment (deterministic for a fixed seed, like every counter here).
	Retransmits uint64
}

// OverheadFraction returns MPI blocked time as a fraction of total
// rank-seconds (the paper's "ovhd" column).
func (r Result) OverheadFraction(ranks int) float64 {
	if r.Runtime <= 0 {
		return 0
	}
	return float64(r.MPITime) / (float64(r.Runtime) * float64(ranks))
}

type recvReq struct {
	peer int
	tag  uint64
	size int
	done bool
}

type sendReq struct {
	done bool
	// rts is the RTS retry record while the RTS is unacked (retry only).
	rts *ctlRetry
}

// inflight tracks an arriving wire message at the receiver, in the
// message's Assembly slot.
type inflight struct {
	arrived int
	total   int
	visible sim.Time
}

// pendingArrival is a fully arrived message not yet matched or consumed.
// It copies everything the protocol needs out of the wire message, so the
// message itself can be recycled the moment it is dispatched.
type pendingArrival struct {
	src    int
	tag    uint64
	size   int
	rts    bool // rendezvous announcement rather than data
	at     sim.Time
	pullID uint64 // rendezvous transfer id (rts only)
}

// pullDest records where a rendezvous pull's data must complete.
type pullDest struct {
	r  *rank
	rr *recvReq
	// pull is the pull's retry record until its budget is spent (retry
	// only); data answering its first copy is an RTT sample.
	pull *ctlRetry
}

// rank is one simulated MPI process. Every mutable field — program state,
// protocol maps, free lists, counters — is owned by the rank and touched
// only by its own events (senders and receivers each key their own maps;
// see the field comments).
type rank struct {
	id  int
	eng *Engine
	// nc is the engine's cluster, held per rank so the hot paths reach its
	// engine and message free list in one load.
	nc  *netsim.Cluster
	cpu *hostsim.CPU
	// nz is the rank's noise model, built once at construction (not once
	// per compute phase) and shared with the CPU.
	nz *noise.Model

	ops []Op
	pc  int

	posted     []*recvReq
	unexpected []*pendingArrival

	sends []*sendReq
	recvs []*recvReq

	// rdvPull maps rendezvous ids this rank announced (as sender) to their
	// completion state; the pull arrives back at this rank and deletes them.
	rdvPull map[uint64]*sendReq
	// pullWait maps rendezvous ids this rank is pulling (as receiver) to the
	// receive awaiting the data.
	pullWait map[uint64]pullDest
	// rtsSeen records rendezvous ids whose RTS this rank already processed,
	// so a retransmitted RTS cannot double-match (only populated when retry
	// is on).
	rtsSeen map[uint64]struct{}

	// Rank-owned free lists for per-message protocol state (deliberately not
	// sync.Pool: each rank's events are single-threaded and reuse order must
	// be deterministic for bit-reproducible replays). Objects are zeroed
	// when drawn, so recycling changes allocation behaviour only, and every
	// object's lifecycle stays on the rank that drew it. Wire messages come
	// from the owning cluster's free list (netsim.Cluster.AllocMessage) and
	// are recycled by the transport at last-packet dispatch.
	recvFree []*recvReq
	sendFree []*sendReq
	paFree   []*pendingArrival
	inflFree []*inflight
	ctlFree  []*ctlRetry

	// The rank's RFC 6298 retransmission-timeout estimator (retry only):
	// srtt and rttvar from the RTS→ack and pull→data round trips of first
	// copies (see sampleRTT; srtt == 0 means no sample yet, a round trip is
	// never 0),
	// and rto, the timeout the rank's next control timer arms with.
	srtt, rttvar, rto sim.Time

	// Per-rank result counters, folded into Res by Run.
	messages    uint64
	copies      uint64
	retransmits uint64

	// inMPI is true while the rank is inside an MPI call (WaitAll);
	// the baseline can only progress protocols then.
	inMPI      bool
	mpiEnter   sim.Time
	mpiBlocked sim.Time
	// pendingProgress queues protocol arrivals (RTS service, eager copies)
	// until the host enters MPI (baseline mode).
	pendingProgress []*pendingArrival

	finished bool
	endTime  sim.Time
}

// Engine replays rank programs.
type Engine struct {
	C *netsim.Cluster
	// Cfg is the configuration in effect: the one given to New, with the
	// current fault model and the retry defaults it implies.
	Cfg Config
	// base is the configuration exactly as given to New; Reset re-derives
	// Cfg from it under the new fault model.
	base Config
	rank []*rank

	Res Result
}

// New builds a replay engine for the given per-rank programs.
func New(cfg Config, programs [][]Op) (*Engine, error) {
	c, err := netsim.NewCluster(len(programs), cfg.Params)
	if err != nil {
		return nil, err
	}
	c.SetImpairment(cfg.Impair)
	e := &Engine{C: c, Cfg: cfg.withRetryDefaults(), base: cfg}
	e.rank = make([]*rank, len(programs))
	for i, prog := range programs {
		var nz *noise.Model
		if cfg.Noise != nil {
			nz = cfg.Noise(i)
		}
		e.rank[i] = &rank{
			id: i, eng: e, nc: c,
			cpu: hostsim.New(c, i, nz), nz: nz, ops: prog,
			rdvPull:  make(map[uint64]*sendReq),
			pullWait: make(map[uint64]pullDest),
			rtsSeen:  make(map[uint64]struct{}),
			rto:      e.Cfg.RetryTimeout,
		}
		c.Nodes[i].Recv = &nodeRecv{e: e, r: e.rank[i]}
	}
	return e, nil
}

// Ranks returns the number of rank programs the engine replays; Reset
// requires a program set of the same size.
func (e *Engine) Ranks() int { return len(e.rank) }

// Reset returns the engine to its post-construction state for a new program
// set on the same cluster, under fault model im (nil = perfect network), so
// one engine per (rank count, configuration) can serve an entire experiment
// instead of a single replay, whatever model each replay runs under. The
// cluster's transport state (engine clock/queue/sequence, resource
// busy-until timelines, recorder) restarts via netsim.Cluster.ResetCore;
// im is installed as New installs Config.Impair, and the retry settings
// and every rank's RTO estimator are re-derived from it; the protocol maps
// are cleared in place; and all outstanding per-message state returns to
// the engine's free lists.
//
// Determinism contract (mirroring netsim.Cluster.Reset): a reset engine
// produces bit-identical simulated output to one freshly constructed with
// Config.Impair = im for the same programs, because every input to the
// event order restarts exactly — free-list and map-bucket reuse changes
// allocation behaviour only, and no simulation path iterates those maps.
func (e *Engine) Reset(programs [][]Op, im *netsim.Impairment) error {
	if len(programs) != len(e.rank) {
		return fmt.Errorf("mpisim: Reset with %d programs on a %d-rank engine", len(programs), len(e.rank))
	}
	// Loss can quarantine a message mid-assembly; its inflight record goes
	// back to the receiving rank before ResetCore recycles the message.
	for _, m := range e.C.Quarantined() {
		if fl, ok := m.Assembly.(*inflight); ok {
			e.rank[m.Dst].freeInflight(fl)
		}
	}
	e.C.ResetCore()
	e.C.SetImpairment(im)
	cfg := e.base
	cfg.Impair = im
	e.Cfg = cfg.withRetryDefaults()
	e.Res = Result{}
	for i, r := range e.rank {
		// The maps' values are owned by the rank-side lists below, so free
		// exactly once from the owner.
		clear(r.rdvPull)
		clear(r.pullWait)
		clear(r.rtsSeen)
		for _, rr := range r.recvs {
			r.freeRecvReq(rr)
		}
		for _, sr := range r.sends {
			r.freeSendReq(sr)
		}
		for _, pa := range r.unexpected {
			r.freePA(pa)
		}
		for _, pa := range r.pendingProgress {
			r.freePA(pa)
		}
		r.ops = programs[i]
		r.pc = 0
		r.posted = r.posted[:0] // entries are owned by (and freed via) recvs
		r.unexpected = r.unexpected[:0]
		r.sends = r.sends[:0]
		r.recvs = r.recvs[:0]
		r.messages = 0
		r.copies = 0
		r.retransmits = 0
		r.inMPI = false
		r.mpiEnter = 0
		r.mpiBlocked = 0
		r.pendingProgress = r.pendingProgress[:0]
		r.finished = false
		r.endTime = 0
		r.srtt, r.rttvar, r.rto = 0, 0, e.Cfg.RetryTimeout
		r.cpu.Reset(r.nz)
	}
	return nil
}

// Free-list accessors (rank-owned). Every object is zeroed on allocation so
// pooled reuse can never leak state between messages or replays.

func (r *rank) allocRecvReq() *recvReq {
	if n := len(r.recvFree); n > 0 {
		rr := r.recvFree[n-1]
		r.recvFree = r.recvFree[:n-1]
		*rr = recvReq{}
		return rr
	}
	return &recvReq{}
}

func (r *rank) freeRecvReq(rr *recvReq) { r.recvFree = append(r.recvFree, rr) }

func (r *rank) allocSendReq() *sendReq {
	if n := len(r.sendFree); n > 0 {
		sr := r.sendFree[n-1]
		r.sendFree = r.sendFree[:n-1]
		*sr = sendReq{}
		return sr
	}
	return &sendReq{}
}

func (r *rank) freeSendReq(sr *sendReq) { r.sendFree = append(r.sendFree, sr) }

func (r *rank) allocPA() *pendingArrival {
	if n := len(r.paFree); n > 0 {
		pa := r.paFree[n-1]
		r.paFree = r.paFree[:n-1]
		*pa = pendingArrival{}
		return pa
	}
	return &pendingArrival{}
}

func (r *rank) freePA(pa *pendingArrival) { r.paFree = append(r.paFree, pa) }

// ctlRetry tracks one rendezvous control message (RTS or pull) awaiting
// progress under impairment. The retry timer owns the record: it recycles
// records whose exchange progressed (an RTS acked or pulled, a pull
// answered) and resends and re-arms the rest. An ack unlinks the record
// from its sendReq and the pull's data deletes its id from pullWait; the
// timer's next firing recycles it.
// Records are engine-owned and closure-free like every other pooled object
// here; records still referenced by timers dropped in a Reset are abandoned
// to the GC, matching the engine's dropped-event rule.
type ctlRetry struct {
	e     *Engine
	isRTS bool
	id    uint64   // rendezvous/pull id
	rnk   *rank    // sender (RTS) or receiver (pull)
	first uint64   // message ID of the first copy, echoed in its answer
	sent  sim.Time // when the first copy was sent (the RTT sample's start)
	peer  int
	tag   uint64
	size  int
	tries int
}

func (r *rank) allocCtlRetry() *ctlRetry {
	if n := len(r.ctlFree); n > 0 {
		cr := r.ctlFree[n-1]
		r.ctlFree = r.ctlFree[:n-1]
		*cr = ctlRetry{e: r.eng}
		return cr
	}
	return &ctlRetry{e: r.eng}
}

func (r *rank) freeCtlRetry(cr *ctlRetry) { r.ctlFree = append(r.ctlFree, cr) }

// retryOn reports whether rendezvous-control retry is active.
func (e *Engine) retryOn() bool { return e.Cfg.RetryTimeout > 0 && e.C.Impaired() }

// rtoCap is the ceiling of every rank's RTO.
func (e *Engine) rtoCap() sim.Time { return maxBackoff * e.Cfg.RetryTimeout }

// sampleRTT folds one valid round-trip sample into the rank's estimator
// (RFC 6298 §2.2-2.3 with α = 1/8 and β = 1/4, in integer picoseconds) and
// recomputes the RTO from it, which also ends any backoff. A sample is the
// round trip of an exchange's first copy: the ack of an RTS, and the data
// of a pull less its serialization time. The answer echoes the message ID
// of the copy it answers (Message.ReplyTo), so an answer to a resend is
// never timed from the first copy's send (Karn's rule), while the first
// copy's own answer still counts after a spurious resend, as RFC 7323
// timestamps allow. Without that, a rank whose path is slower than its
// RTO resends every pull and never takes a sample from one.
func (r *rank) sampleRTT(rtt sim.Time) {
	if r.srtt == 0 {
		r.srtt, r.rttvar = rtt, rtt/2
	} else {
		d := r.srtt - rtt
		if d < 0 {
			d = -d
		}
		r.rttvar = (3*r.rttvar + d) / 4
		r.srtt = (7*r.srtt + rtt) / 8
	}
	r.rto = min(max(r.eng.Cfg.RetryTimeout, r.srtt+4*r.rttvar), r.eng.rtoCap())
}

// backoff doubles the rank's RTO after an RTS timeout (RFC 6298 §5.5). It
// stays doubled until the next valid sample, so a network slower than the
// RTO still lets an RTS complete before its timer fires.
func (r *rank) backoff() { r.rto = min(2*r.rto, r.eng.rtoCap()) }

// timeout is how long the record's exchange may go without progress: the
// rank's RTO, plus for a pull the serialization time of the data it asks
// for. A pull's timeout does not back the RTO off: the pull is only issued
// once its RTS has crossed the path, so a pull times out mostly on a lost
// packet of its data stream, and doubling the rank's RTO for that would
// slow every other exchange of the rank until the next valid sample.
func (cr *ctlRetry) timeout() sim.Time {
	if cr.isRTS {
		return cr.rnk.rto
	}
	return cr.rnk.rto + cr.e.C.P.GBytes(cr.size)
}

// armCtlRetry schedules the retry timer for a control exchange whose first
// copy, message first, was sent at now on the arming rank's own engine and
// returns its record.
func (e *Engine) armCtlRetry(now sim.Time, isRTS bool, id, first uint64, r *rank, peer int, tag uint64, size int) *ctlRetry {
	cr := r.allocCtlRetry()
	cr.isRTS, cr.id, cr.first, cr.rnk, cr.sent, cr.peer, cr.tag, cr.size = isRTS, id, first, r, now, peer, tag, size
	r.nc.Eng.ScheduleCall(now+cr.timeout(), runCtlRetry, cr)
	return cr
}

// runCtlRetry is the ScheduleCall entry point for a control-retry timeout.
// It touches only the arming rank's maps and estimator and the cluster's
// fault counters.
func runCtlRetry(a any) {
	cr := a.(*ctlRetry)
	e := cr.e
	r := cr.rnk
	// Progress check: an RTS exchange is live while its sendReq still
	// points at the record (an ack unlinks it; the pull's arrival deletes
	// the id from rdvPull); a pull is live while its id is in pullWait (the
	// data's arrival deletes it).
	var live bool
	if cr.isRTS {
		sr, ok := r.rdvPull[cr.id]
		live = ok && sr.rts == cr
	} else {
		_, live = r.pullWait[cr.id]
	}
	if !live {
		r.freeCtlRetry(cr)
		return
	}
	if cr.tries >= e.Cfg.MaxRetries {
		// Budget spent: stop resending. The unfinished exchange surfaces as
		// a deadlock from Run, which is the honest outcome of a partitioned
		// network.
		r.nc.Faults.RetransFails++
		// A late ack or data must not reach the recycled record.
		if cr.isRTS {
			r.rdvPull[cr.id].rts = nil
		} else {
			pd := r.pullWait[cr.id]
			pd.pull = nil
			r.pullWait[cr.id] = pd
		}
		r.freeCtlRetry(cr)
		return
	}
	cr.tries++
	r.retransmits++
	r.nc.Faults.Retransmits++
	now := r.nc.Eng.Now()
	m := r.allocMsg()
	m.Type = netsim.OpPut // RTS rides a put header
	if !cr.isRTS {
		m.Type = netsim.OpGet
	}
	m.Src = r.id
	m.Dst = cr.peer
	m.MatchBits = cr.tag
	m.HdrData = cr.id
	m.GetLength = cr.size
	e.C.DeviceSend(now, m)
	if cr.isRTS {
		r.backoff()
	}
	r.nc.Eng.ScheduleCall(now+cr.timeout(), runCtlRetry, cr)
}

func (r *rank) allocInflight() *inflight {
	if n := len(r.inflFree); n > 0 {
		fl := r.inflFree[n-1]
		r.inflFree = r.inflFree[:n-1]
		*fl = inflight{}
		return fl
	}
	return &inflight{}
}

func (r *rank) freeInflight(fl *inflight) { r.inflFree = append(r.inflFree, fl) }

// allocMsg draws a zeroed wire message from the cluster's free list. The
// transport recycles it as soon as the last packet has been dispatched,
// which is safe because pendingArrival copies every field the
// protocol may need later.
func (r *rank) allocMsg() *netsim.Message {
	return r.nc.AllocMessage()
}

// Run replays the programs to completion and returns the result.
func (e *Engine) Run() (Result, error) {
	for _, r := range e.rank {
		r.nc.Eng.ScheduleCall(0, rankStep, r)
	}
	e.C.Run()
	var end sim.Time
	for _, r := range e.rank {
		if !r.finished {
			return Result{}, fmt.Errorf("mpisim: rank %d deadlocked at op %d/%d", r.id, r.pc, len(r.ops))
		}
		if r.endTime > end {
			end = r.endTime
		}
		e.Res.MPITime += r.mpiBlocked
		e.Res.Messages += r.messages
		e.Res.Copies += r.copies
		e.Res.Retransmits += r.retransmits
	}
	e.Res.Runtime = end
	e.Res.Events = e.C.Eng.Processed()
	return e.Res, nil
}

// rankStep and rankResume are the pre-bound event entry points (ScheduleCall
// arguments), replacing the per-event closures of the seed engine.

func rankStep(a any) {
	r := a.(*rank)
	r.step(r.nc.Eng.Now())
}

func rankResume(a any) {
	r := a.(*rank)
	r.resume(r.nc.Eng.Now())
}

// step advances a rank's program at time now.
func (r *rank) step(now sim.Time) {
	for r.pc < len(r.ops) {
		op := r.ops[r.pc]
		switch op.Kind {
		case OpCompute:
			r.pc++
			end := r.nz.Inflate(now, op.Dur)
			r.nc.Eng.ScheduleCall(end, rankStep, r)
			return
		case OpIsend:
			r.pc++
			now = r.isend(now, op)
		case OpIrecv:
			r.pc++
			now = r.irecv(now, op)
		case OpWaitAll:
			if r.allDone() {
				r.pc++
				r.releaseRequests()
				continue
			}
			// Block in MPI: enable progress, drain queued work.
			if !r.inMPI {
				r.inMPI = true
				r.mpiEnter = now
				r.drainProgress(now)
			}
			return
		}
	}
	r.finished = true
	r.endTime = now
}

// releaseRequests recycles the completed wait phase's requests. Every send
// and receive is done here, so nothing else holds them: completed sendReqs
// were deleted from rdvPull when their pull arrived, and completed recvReqs
// were removed from posted (and pullWait) when they matched.
func (r *rank) releaseRequests() {
	for _, sr := range r.sends {
		r.freeSendReq(sr)
	}
	for _, rr := range r.recvs {
		r.freeRecvReq(rr)
	}
	r.sends = r.sends[:0]
	r.recvs = r.recvs[:0]
}

// resume is called when a completion might unblock a WaitAll.
func (r *rank) resume(now sim.Time) {
	if r.finished || !r.inMPI {
		return
	}
	if r.pc < len(r.ops) && r.ops[r.pc].Kind == OpWaitAll && r.allDone() {
		r.inMPI = false
		r.mpiBlocked += now - r.mpiEnter
		r.step(now)
	}
}

func (r *rank) allDone() bool {
	for _, s := range r.sends {
		if !s.done {
			return false
		}
	}
	for _, rc := range r.recvs {
		if !rc.done {
			return false
		}
	}
	return true
}

// drainProgress services protocol arrivals deferred until MPI entry
// (baseline). New arrivals during the drain are progressed immediately
// (inMPI is already true), so the list cannot grow while it is walked.
func (r *rank) drainProgress(now sim.Time) {
	for i := 0; i < len(r.pendingProgress); i++ {
		pa := r.pendingProgress[i]
		r.pendingProgress[i] = nil
		r.progressArrival(now, pa)
	}
	r.pendingProgress = r.pendingProgress[:0]
}

// enqueueArrival defers servicing pa until the host can progress MPI. When
// the host is already inside MPI it is serviced immediately.
func (r *rank) enqueueArrival(now sim.Time, pa *pendingArrival) {
	if r.inMPI {
		r.progressArrival(now, pa)
		return
	}
	r.pendingProgress = append(r.pendingProgress, pa)
}
