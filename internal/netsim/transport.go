package netsim

import (
	"fmt"

	"repro/internal/membus"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// OpType distinguishes the network transaction kinds of Portals 4 (§3.1).
type OpType uint8

const (
	OpPut OpType = iota
	OpGet
	OpGetResponse
	OpAtomic
	OpAck
)

func (o OpType) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpGetResponse:
		return "get-resp"
	case OpAtomic:
		return "atomic"
	case OpAck:
		return "ack"
	}
	return fmt.Sprintf("op(%d)", uint8(o)) //simlint:alloc-ok unreachable fallback for invalid op values; known ops return interned literals
}

// Message is one network transaction. Data may be nil for timing-only
// simulations (large trace replays); when present, receivers deposit the
// actual bytes so tests can verify end-to-end content.
type Message struct {
	ID        uint64
	Type      OpType
	Src, Dst  int
	PTIndex   int
	MatchBits uint64
	Offset    int64 // requested offset in the target ME
	HdrData   uint64
	UserHdr   []byte // user-defined header (first bytes of payload, §3.2.1)
	Length    int    // payload length in bytes (excluding UserHdr)
	Data      []byte // optional payload bytes, len == Length when non-nil

	// GetLength is the number of bytes requested by an OpGet.
	GetLength int
	// AtomicOp selects the operation of an OpAtomic message (values are
	// defined by the Portals layer).
	AtomicOp uint8
	// AckReq asks the target to send an OpAck back to the initiator when
	// the message completes.
	AckReq bool
	// ReplyTo carries the originating message for OpGetResponse/OpAck so
	// the requester can correlate completions.
	ReplyTo uint64

	// Delivered, if set, runs at the source when the last packet has been
	// injected (send-side completion, e.g. MD events). In the style of
	// sim.Engine.ScheduleCall, the transport invokes Delivered(DeliveredArg,
	// now) through a dispatcher pre-bound at cluster construction, so a
	// non-capturing callback schedules without allocating. The callback
	// must not retain the message.
	Delivered    func(arg any, now sim.Time)
	DeliveredArg any

	// Assembly is the destination receiver's per-message slot: a receiver
	// that assembles a message from its packets keeps its record here
	// rather than in a map keyed by *Message. The transport never reads it,
	// and recycling a pooled message zeroes it. A message that loss
	// quarantines keeps its slot until ResetCore recycles it, so a receiver
	// that pools what it stores here reclaims it through Quarantined first.
	Assembly any

	// buf is the message-owned payload staging buffer (see StageData).
	// Pooled messages keep its capacity across recycling, so steady-state
	// payload staging allocates nothing.
	buf []byte
	// pooled marks messages drawn from Cluster.AllocMessage: the transport
	// recycles them automatically after their last packet has been
	// dispatched to the receiver.
	pooled bool

	// track, faulted, and touched exist only under impairment (track stays 0
	// otherwise). track counts packets not yet terminally accounted for
	// (delivered, dropped, or CRC-discarded); faulted records that at least
	// one packet was removed; touched records that a receiver saw at least
	// one packet. Together they decide recycle-vs-quarantine for pooled
	// messages when loss breaks the "last packet dispatches" invariant — see
	// Cluster.packetAccounted.
	track   int
	faulted bool
	touched bool
}

// StageData returns an n-byte payload buffer owned by the message and
// installs it as the message's Data. The buffer is grow-only scratch: its
// contents are unspecified, so callers must overwrite all n bytes. For
// pooled messages the capacity survives recycling, which is what makes
// payload staging on the hot path allocation-free in steady state.
func (m *Message) StageData(n int) []byte {
	if cap(m.buf) < n || m.buf == nil {
		m.buf = make([]byte, n) // non-nil even for n == 0: staged Data is
		// never nil, matching the timing-only (NoData) distinction.
	}
	m.Data = m.buf[:n:n]
	return m.Data
}

// Packet is one MTU-sized piece of a message.
//
// Packet memory is owned by the transport: packets are drawn from a
// cluster-wide free list when they arrive and recycled as soon as the
// destination's Receiver returns. Receivers must copy anything they need
// past the ReceivePacket call and must not retain the pointer.
type Packet struct {
	Msg    *Message
	Index  int  // 0-based packet number
	Offset int  // payload offset within the message
	Size   int  // payload bytes carried
	Header bool // true for the first packet (carries header + user header)
	Last   bool

	// corrupt marks a packet damaged by the impairment layer: it traverses
	// the wire and matching hardware, then fails the NIC CRC check and is
	// discarded before the Receiver sees it.
	corrupt bool

	// node is the destination, carried so the matched-packet event can be
	// scheduled without a closure.
	node *Node
}

// Receiver consumes matched packets at a node. The Portals layer implements
// this.
type Receiver interface {
	// ReceivePacket is called when the packet has cleared the NIC's
	// matching hardware at time now.
	ReceivePacket(now sim.Time, pkt *Packet)
}

// Resetter is implemented by receivers that can return to their
// post-construction state. Cluster.Reset resets every installed receiver
// that implements it, which is how a reset cascades from the transport into
// the Portals/runtime layers without netsim importing them.
type Resetter interface {
	Reset()
}

// Node is one network endpoint: a host CPU, its NIC (egress + matching
// unit), and the NIC<->memory bus.
type Node struct {
	Rank    int
	Egress  *sim.Resource
	MatchHW *sim.Resource
	Bus     *membus.Bus
	Cores   *sim.Pool
	Recv    Receiver

	cluster *Cluster
	// sendSeq counts this node's sends. It feeds the priority key of every
	// walk event the node originates (see msgWalk.pri).
	sendSeq uint64
}

// Cluster wires n nodes onto one engine and transports packets between them.
type Cluster struct {
	Eng    *sim.Engine
	P      Params
	Nodes  []*Node
	Rec    *timeline.Recorder // optional; nil disables recording
	nextID uint64

	// pktFree, walkFree, and msgFree are engine-owned free lists
	// (deliberately not sync.Pool: the engine is single-threaded and reuse
	// order must be deterministic for bit-reproducible runs).
	pktFree  []*Packet
	walkFree []*msgWalk
	msgFree  []*Message

	// deliveredCall is the pre-bound dispatcher for Message.Delivered,
	// built once at construction so send-side completion schedules via
	// ScheduleCall without a per-message closure.
	deliveredCall func(any)

	// imp is the installed fault model (nil = perfect network); linkSeq
	// counts packets per directed link, keying the impairment PRNG; and
	// quarantine parks faulted pooled messages until the next ResetCore
	// (see packetAccounted). All three are touched only under impairment.
	imp        *Impairment
	linkSeq    map[uint64]uint64
	quarantine []*Message

	// Faults counts injected faults and recovery work (see FaultStats).
	Faults FaultStats

	// Stats
	MessagesSent uint64
	PacketsSent  uint64
	BytesSent    uint64
}

// NewCluster builds n nodes with the given parameters on a fresh engine.
func NewCluster(n int, p Params) (*Cluster, error) {
	if err := p.Topo.Validate(n); err != nil {
		return nil, err
	}
	c := &Cluster{Eng: sim.NewEngine(), P: p}
	c.deliveredCall = c.runDelivered
	c.Nodes = make([]*Node, n)
	for i := range c.Nodes {
		c.Nodes[i] = &Node{
			Rank:    i,
			Egress:  sim.NewResource(fmt.Sprintf("egress-%d", i)),
			MatchHW: sim.NewResource(fmt.Sprintf("match-%d", i)),
			Bus:     membus.New(p.DMA),
			Cores:   sim.NewPool(fmt.Sprintf("cpu-%d", i), p.HostCores),
			cluster: c,
		}
	}
	return c, nil
}

// Run executes the simulation to completion and returns the final simulated
// time.
func (c *Cluster) Run() sim.Time { return c.Eng.Run() }

// Reset returns the cluster to its post-construction state so one cluster
// can serve an entire measurement sweep instead of a single point: the
// engine's clock, queue, and sequence counter restart at zero; every node's
// egress, matching unit, memory bus, and core pool go idle; installed
// receivers that implement Resetter (the Portals NI and, through it, the
// sPIN runtime) are reset; the attached timeline recorder (if any) is
// cleared; and message IDs and statistics restart. The engine-owned free
// lists (packets, walks, messages) are deliberately retained — that is the
// point of reuse — and cannot leak stale state because every pooled object
// is fully reinitialized on allocation or recycling.
//
// Determinism contract: a reset cluster produces bit-identical simulated
// times to a freshly constructed one, because every input to the event
// order — the clock, the (time, seq) tie-breaks, and all busy-until
// trajectories — restarts exactly as construction leaves it. Free-list and
// map-bucket reuse changes only allocation behaviour, never simulated time;
// no simulation path iterates those maps.
func (c *Cluster) Reset() {
	c.ResetCore()
	for _, n := range c.Nodes {
		if r, ok := n.Recv.(Resetter); ok {
			r.Reset()
		}
	}
}

// ResetCore resets the transport itself — engine clock/queue/sequence,
// every node's egress, matching unit, memory bus and core pool, the
// recorder, message IDs, and statistics — without cascading into the
// installed receivers. Systems that keep long-lived protocol setup on their
// receivers (mpisim's rank machinery, raidsim's portal tables) use it to
// reuse a cluster across replays while restoring their own receiver state
// in place; everything Reset says about determinism applies equally here.
func (c *Cluster) ResetCore() {
	for _, n := range c.Nodes {
		n.Egress.Reset()
		n.MatchHW.Reset()
		n.Bus.Reset()
		n.Cores.Reset()
		n.sendSeq = 0
	}
	c.Rec.Reset()
	c.Eng.Reset()
	c.nextID = 0
	c.MessagesSent = 0
	c.PacketsSent = 0
	c.BytesSent = 0
	clear(c.linkSeq)
	c.Faults = FaultStats{}
	// Quarantined messages are safe to reuse once receiver-side maps have
	// been cleared; recycling them here (deterministic LIFO order) keeps the
	// pool steady across reset-reuse sweeps.
	for _, m := range c.quarantine {
		c.recycleMessage(m)
	}
	c.quarantine = c.quarantine[:0]
}

// Quarantined returns the pooled messages that loss parked until the next
// ResetCore (see packetAccounted). The caller must not retain the slice or
// its messages past ResetCore.
func (c *Cluster) Quarantined() []*Message { return c.quarantine }

// NextID returns a fresh message ID, unique across the cluster.
func (c *Cluster) NextID() uint64 {
	c.nextID++
	return c.nextID
}

// msgWalk drives the packet injections of one message through the engine as
// a single event chain: the walk delivers packet i at its arrival time and
// reschedules itself for packet i+1, instead of queueing n closures up
// front. Arrival times are reconstructed incrementally — every non-final
// packet carries a full MTU, so its egress occupancy is the same — and the
// event sequence numbers are reserved at Send time, which makes the event
// order bit-identical to eager per-packet scheduling.
type msgWalk struct {
	c       *Cluster
	dst     *Node
	msg     *Message
	length  int      // msg.Length frozen at Send time: packetization must
	n       int      // not change if the caller mutates msg in flight
	idx     int      // next packet to deliver
	seq0    uint64   // reserved sequence number of packet 0's arrival
	stamp   sim.Time // engine clock at Send (seq-reservation) time
	pri     uint64   // (source send count, source rank) priority key
	arr     sim.Time // arrival time of packet idx
	occFull sim.Time // egress occupancy of a full-MTU packet
	occLast sim.Time // egress occupancy of the final packet

	// impSeq is the message's reserved block of per-link packet sequence
	// numbers and lastAt the latest impaired delivery time so far (FIFO
	// clamp). Both are used only under impairment.
	impSeq uint64
	lastAt sim.Time
}

func (c *Cluster) allocWalk() *msgWalk {
	if n := len(c.walkFree); n > 0 {
		w := c.walkFree[n-1]
		c.walkFree = c.walkFree[:n-1]
		return w
	}
	return &msgWalk{}
}

func (c *Cluster) freeWalk(w *msgWalk) {
	*w = msgWalk{}
	c.walkFree = append(c.walkFree, w)
}

// AllocMessage draws a zeroed wire message from the cluster's engine-owned
// free list. Pooled messages are recycled by the transport itself as soon as
// their last packet has been dispatched to the destination's Receiver — so a
// receiver (and every layer above it) must copy anything it needs past that
// dispatch and must never hold a pooled *Message across events. See
// ARCHITECTURE.md "Pooling ownership rules" for the full contract.
//
// Messages built as plain literals (&Message{...}) remain valid and are
// never recycled; pooling is opt-in by allocation site.
func (c *Cluster) AllocMessage() *Message {
	if n := len(c.msgFree); n > 0 {
		m := c.msgFree[n-1]
		c.msgFree = c.msgFree[:n-1]
		return m
	}
	return &Message{pooled: true}
}

// PooledMessages reports how many messages sit in the free list right now
// (test/diagnostic use: retention tests assert the pool returns to its
// idle size, proving no path leaks or double-holds a pooled message).
func (c *Cluster) PooledMessages() int { return len(c.msgFree) }

// recycleMessage zeroes a pooled message and returns it to the free list,
// keeping the staging buffer's capacity for the next StageData.
func (c *Cluster) recycleMessage(m *Message) {
	buf := m.buf
	*m = Message{}
	m.buf = buf[:0]
	m.pooled = true
	c.msgFree = append(c.msgFree, m)
}

// runDelivered is the ScheduleCall dispatcher behind Message.Delivered.
func (c *Cluster) runDelivered(a any) {
	m := a.(*Message)
	m.Delivered(m.DeliveredArg, c.Eng.Now())
}

func (c *Cluster) allocPacket() *Packet {
	if n := len(c.pktFree); n > 0 {
		p := c.pktFree[n-1]
		c.pktFree = c.pktFree[:n-1]
		return p
	}
	return &Packet{}
}

func (c *Cluster) freePacket(p *Packet) {
	*p = Packet{}
	c.pktFree = append(c.pktFree, p)
}

// Send injects msg at the source NIC no earlier than ready (data available
// at the NIC) and delivers its packets to the destination's Receiver after
// matching. The caller is responsible for charging CPU overhead (o) or DMA
// fetch time before ready, depending on where the data originates; Send
// models only the wire and the receive-side matching hardware.
func (c *Cluster) Send(ready sim.Time, msg *Message) {
	if msg.ID == 0 {
		msg.ID = c.NextID()
	}
	src := c.Nodes[msg.Src]
	dst := c.Nodes[msg.Dst]
	lat := c.P.Topo.Latency(msg.Src, msg.Dst)
	n := c.P.Packets(msg.Length)
	c.MessagesSent++

	// Every packet except the last carries a full MTU, so egress occupancy
	// has only two distinct values and the message's back-to-back egress
	// acquisitions collapse to closed form.
	var occFull sim.Time
	if n > 1 {
		occFull = c.P.PacketOccupancy(c.P.MTU)
	}
	occLast := c.P.PacketOccupancy(msg.Length - (n-1)*c.P.MTU)
	firstOcc := occLast
	if n > 1 {
		firstOcc = occFull
	}

	// One egress reservation for the whole train: the packets inject
	// back to back, so a single Acquire of the summed occupancy leaves the
	// same busy-until trajectory as n consecutive acquisitions, in O(1).
	totalOcc := sim.Time(n-1)*occFull + occLast
	start := src.Egress.Acquire(ready, totalOcc)
	firstArrival := start + firstOcc + lat
	lastInjected := start + totalOcc
	if c.Rec.Enabled() {
		s := start
		for i := 0; i < n; i++ {
			occ := occFull
			if i == n-1 {
				occ = occLast
			}
			c.Rec.Record(msg.Src, "NIC", s, s+occ, fmt.Sprintf("tx %s #%d", msg.Type, i)) //simlint:alloc-ok trace labels are built only when recording is enabled; benchmarks run with Rec nil
			s += occ
		}
	}
	c.PacketsSent += uint64(n)
	c.BytesSent += uint64(msg.Length)

	var impSeq uint64
	if c.imp != nil {
		// Reserve this message's block of per-link packet sequence numbers
		// at Send time: the fault verdict for packet i depends only on how
		// many packets the link carried before this message, which is itself
		// a pure function of the traffic pattern.
		k := linkKey(msg.Src, msg.Dst)
		impSeq = c.linkSeq[k]
		c.linkSeq[k] += uint64(n)
		msg.track = n
		msg.faulted = false
		msg.touched = false
	}
	stamp := c.Eng.Now()
	// The walk's priority key: (source send count, source rank), unique per
	// message. Among events stamped at one instant and due together, plain
	// events (pri 0) run before packet walks, and walks run in this key's
	// order rather than scheduling order; the sim package doc records the
	// outputs that change without it. Rank fits 16 bits by topology
	// validation (a fat tree's host count is far below 64k).
	src.sendSeq++
	pri := src.sendSeq<<16 | uint64(msg.Src)
	w := c.allocWalk()
	*w = msgWalk{c: c, dst: dst, msg: msg, length: msg.Length, n: n,
		seq0: c.Eng.ReserveSeq(n), stamp: stamp, pri: pri, arr: firstArrival,
		occFull: occFull, occLast: occLast, impSeq: impSeq}
	c.Eng.ScheduleCallSeq(firstArrival, stamp, pri, w.seq0, walkDeliver, w)
	if msg.Delivered != nil {
		c.Eng.ScheduleCall(lastInjected, c.deliveredCall, msg)
	}
}

// walkDeliver fires at one packet's arrival instant: it materializes the
// packet from the free list, hands it to the destination NIC, and
// reschedules itself for the message's next packet.
func walkDeliver(a any) {
	w := a.(*msgWalk)
	c := w.c
	i := w.idx
	off := i * c.P.MTU
	size := w.length - off
	if size > c.P.MTU {
		size = c.P.MTU
	}
	if size < 0 {
		size = 0
	}
	pkt := c.allocPacket()
	pkt.Msg = w.msg
	pkt.Index = i
	pkt.Offset = off
	pkt.Size = size
	pkt.Header = i == 0
	pkt.Last = i == w.n-1
	dst := w.dst
	// Decide the packet's fate before advancing the walk: the final packet's
	// advance frees w, and the verdict reads the walk's impairment state.
	var at sim.Time
	var drop bool
	if c.imp != nil {
		at, drop = c.impairPacket(w, pkt, w.arr)
	}
	w.idx++
	if w.idx < w.n {
		if w.idx == w.n-1 {
			w.arr += w.occLast
		} else {
			w.arr += w.occFull
		}
		c.Eng.ScheduleCallSeq(w.arr, w.stamp, w.pri, w.seq0+uint64(w.idx), walkDeliver, w)
	} else {
		c.freeWalk(w)
	}
	if c.imp == nil {
		dst.receive(pkt)
		return
	}
	if drop {
		msg := pkt.Msg
		msg.faulted = true
		c.freePacket(pkt)
		c.packetAccounted(msg)
		return
	}
	if at == c.Eng.Now() {
		dst.receive(pkt)
		return
	}
	pkt.node = dst
	c.Eng.ScheduleCall(at, runDelayedReceive, pkt)
}

// receive runs when a packet reaches the destination NIC: it passes the
// matching hardware (full match for header packets, CAM lookup otherwise)
// and is handed to the node's Receiver. It takes ownership of pkt and
// recycles it once the Receiver is done.
func (n *Node) receive(pkt *Packet) {
	c := n.cluster
	now := c.Eng.Now()
	cost := c.P.CAMLookup
	if pkt.Header {
		cost = c.P.HeaderMatch
	}
	start := n.MatchHW.Acquire(now, cost)
	done := start + cost
	if c.Rec.Enabled() {
		c.Rec.Record(n.Rank, "NIC", start, done, fmt.Sprintf("match %s #%d", pkt.Msg.Type, pkt.Index)) //simlint:alloc-ok trace labels are built only when recording is enabled; benchmarks run with Rec nil
	}
	if n.Recv == nil {
		// No consumer installed; the packet vanishes (tests only). A pooled
		// message is still done once its last packet would have dispatched.
		last, msg := pkt.Last, pkt.Msg
		c.freePacket(pkt)
		if msg.track > 0 {
			c.packetAccounted(msg)
		} else if last && msg.pooled {
			c.recycleMessage(msg)
		}
		return
	}
	pkt.node = n
	c.Eng.ScheduleCall(done, deliverMatched, pkt)
}

// deliverMatched hands a matched packet to the node's Receiver and recycles
// it. Receivers must not retain the pointer past the call. After the LAST
// packet's dispatch returns, a pooled message is recycled too: the transport
// owns pooled-message lifetime, and the retention audit (recvStates,
// channels and core msgs, keyed by *Message, and mpisim's Assembly record —
// all released during the final dispatch) guarantees no layer holds the
// pointer past this instant.
func deliverMatched(a any) {
	pkt := a.(*Packet)
	n := pkt.node
	c := n.cluster
	last, msg := pkt.Last, pkt.Msg
	if pkt.corrupt {
		// NIC CRC check: a corrupted packet consumed wire and matching
		// bandwidth but never reaches the Receiver; recovery layers see it
		// as a loss.
		msg.faulted = true
		c.freePacket(pkt)
		c.packetAccounted(msg)
		return
	}
	if msg.track > 0 {
		msg.touched = true
		n.Recv.ReceivePacket(c.Eng.Now(), pkt)
		c.freePacket(pkt)
		c.packetAccounted(msg)
		return
	}
	n.Recv.ReceivePacket(c.Eng.Now(), pkt)
	c.freePacket(pkt)
	if last && msg.pooled {
		c.recycleMessage(msg)
	}
}

// HostSend charges the injection overhead o on a host core at time now and
// then injects the message; it returns the time the core is released. This
// is the "posted by the host" path used by RDMA and PtlPut.
func (c *Cluster) HostSend(now sim.Time, msg *Message) (coreFree sim.Time) {
	src := c.Nodes[msg.Src]
	_, start := src.Cores.AcquireAny(now, c.P.O)
	coreFree = start + c.P.O
	if c.Rec.Enabled() {
		c.Rec.Record(msg.Src, "CPU", start, coreFree, "post "+msg.Type.String())
	}
	c.Send(coreFree, msg)
	return coreFree
}

// DeviceSend injects a message generated on the NIC itself (triggered ops,
// handler PutFromHost): no host-core overhead; data leaves at ready.
func (c *Cluster) DeviceSend(ready sim.Time, msg *Message) {
	c.Send(ready, msg)
}
