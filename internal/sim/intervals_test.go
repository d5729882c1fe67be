package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalsInOrder(t *testing.T) {
	iv := NewIntervals("bus")
	if s := iv.Acquire(0, 100); s != 0 {
		t.Fatalf("first = %v", s)
	}
	if s := iv.Acquire(0, 100); s != 100 {
		t.Fatalf("second = %v", s)
	}
	if s := iv.Acquire(500, 100); s != 500 {
		t.Fatalf("third = %v", s)
	}
	if iv.FreeAt() != 600 {
		t.Fatalf("FreeAt = %v", iv.FreeAt())
	}
}

func TestIntervalsBackfillGap(t *testing.T) {
	iv := NewIntervals("bus")
	iv.Acquire(0, 100)    // [0,100)
	iv.Acquire(1000, 100) // [1000,1100)
	// A later request for an earlier time slots into the gap — the fix
	// for the head-of-line artifact.
	if s := iv.Acquire(200, 100); s != 200 {
		t.Fatalf("backfill = %v, want 200", s)
	}
	// A too-wide request skips the remaining gap.
	if s := iv.Acquire(150, 900); s != 1100 {
		t.Fatalf("wide = %v, want 1100", s)
	}
}

func TestIntervalsExactGapFit(t *testing.T) {
	iv := NewIntervals("bus")
	iv.Acquire(0, 100)
	iv.Acquire(200, 100)
	if s := iv.Acquire(0, 100); s != 100 {
		t.Fatalf("exact fit = %v, want 100", s)
	}
	// Everything merged into [0,300).
	if len(iv.busy) != 1 {
		t.Fatalf("spans = %d, want 1 after merge", len(iv.busy))
	}
}

func TestIntervalsZeroOccupancy(t *testing.T) {
	iv := NewIntervals("bus")
	iv.Acquire(0, 100)
	if s := iv.Acquire(50, 0); s != 100 {
		t.Fatalf("zero-occ inside busy = %v, want 100", s)
	}
	if len(iv.busy) != 1 {
		t.Fatal("zero-width reservation should not be stored")
	}
}

func TestIntervalsPruneBoundsMemory(t *testing.T) {
	iv := NewIntervals("bus")
	// Disjoint reservations (gap 1 between them) never merge.
	for i := 0; i < 3*maxSpans; i++ {
		iv.Acquire(Time(i*3), 2)
	}
	if len(iv.busy) > maxSpans+1 {
		t.Fatalf("interval list grew to %d", len(iv.busy))
	}
	if iv.floor == 0 {
		t.Fatal("floor never advanced")
	}
}

// Property: no two reservations overlap.
func TestIntervalsNoOverlapProperty(t *testing.T) {
	type req struct{ At, Occ uint16 }
	f := func(reqs []req) bool {
		iv := NewIntervals("bus")
		var got []ivSpan
		for _, r := range reqs {
			occ := Time(r.Occ%500) + 1
			s := iv.Acquire(Time(r.At), occ)
			if s < Time(r.At) {
				return false
			}
			got = append(got, ivSpan{s, s + occ})
		}
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				a, b := got[i], got[j]
				if a.start < b.end && b.start < a.end {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// naiveIntervals replicates the original front-to-back first-fit scan with
// no accelerations: the reference the optimized Intervals must match
// reservation for reservation (the determinism contract makes placement
// exactness load-bearing — see ARCHITECTURE.md).
type naiveIntervals struct {
	busy  []ivSpan
	floor Time
}

func (iv *naiveIntervals) acquire(earliest, occupancy Time) Time {
	start, i := iv.peek(earliest, occupancy)
	iv.commit(i, start, occupancy)
	return start
}

// peek returns where a reservation would start and its insertion index,
// without reserving.
func (iv *naiveIntervals) peek(earliest, occupancy Time) (start Time, i int) {
	if earliest < iv.floor {
		earliest = iv.floor
	}
	start = earliest
	for i < len(iv.busy) {
		sp := iv.busy[i]
		if sp.end <= start {
			i++
			continue
		}
		if start+occupancy <= sp.start {
			break
		}
		start = sp.end
		i++
	}
	return start, i
}

// tail returns the end of the last reservation (the floor if none).
func (iv *naiveIntervals) tail() Time {
	if len(iv.busy) == 0 {
		return iv.floor
	}
	return iv.busy[len(iv.busy)-1].end
}

// commit records the reservation peek placed at (start, index i).
func (iv *naiveIntervals) commit(i int, start, occupancy Time) {
	if start == start+occupancy {
		return
	}
	sp := ivSpan{start, start + occupancy}
	if i > 0 && iv.busy[i-1].end == sp.start {
		iv.busy[i-1].end = sp.end
		if i < len(iv.busy) && iv.busy[i].start == sp.end {
			iv.busy[i-1].end = iv.busy[i].end
			iv.busy = append(iv.busy[:i], iv.busy[i+1:]...)
		}
	} else if i < len(iv.busy) && iv.busy[i].start == sp.end {
		iv.busy[i].start = sp.start
	} else {
		iv.busy = append(iv.busy, ivSpan{})
		copy(iv.busy[i+1:], iv.busy[i:])
		iv.busy[i] = sp
	}
	if len(iv.busy) > maxSpans {
		half := len(iv.busy) / 2
		iv.floor = iv.busy[half-1].end
		iv.busy = append(iv.busy[:0], iv.busy[half:]...)
	}
}

// TestIntervalsFastPathsMatchNaiveScan drives the optimized Intervals and
// the naive reference through identical randomized workloads shaped like
// the simulator's (mixed occupancy classes, lagging and leading earliest
// times, saturated and idle phases) and requires every returned start to
// be identical.
func TestIntervalsFastPathsMatchNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		iv := NewIntervals("t")
		ref := &naiveIntervals{}
		var frontier Time
		for op := 0; op < 5000; op++ {
			var occ Time
			switch rng.Intn(4) {
			case 0:
				occ = 0 // zero-width reservations occupy nothing
			case 1:
				occ = Time(1 + rng.Intn(3)) // tiny (hole-filling)
			case 2:
				occ = Time(8 + rng.Intn(8)) // transaction-sized
			default:
				occ = Time(50 + rng.Intn(200)) // large
			}
			// earliest wanders: mostly lagging the frontier (the Fig 7a
			// regime), sometimes far ahead (idle bus).
			var earliest Time
			switch rng.Intn(5) {
			case 0:
				earliest = frontier + Time(rng.Intn(500)) // beyond the tail
			case 1:
				earliest = 0 // maximally stale
			default:
				lag := Time(rng.Intn(2000))
				if lag > frontier {
					lag = frontier
				}
				earliest = frontier - lag
			}
			got := iv.Acquire(earliest, occ)
			want := ref.acquire(earliest, occ)
			if got != want {
				t.Fatalf("trial %d op %d: Acquire(%d, %d) = %d, reference scan = %d",
					trial, op, earliest, occ, got, want)
			}
			if end := got + occ; occ > 0 && end > frontier {
				frontier = end
			}
		}
		if iv.FreeAt() != frontier && len(iv.busy) > 0 && iv.busy[len(iv.busy)-1].end != frontier {
			t.Fatalf("trial %d: FreeAt %d disagrees with frontier %d", trial, iv.FreeAt(), frontier)
		}
	}
}

// naivePool is k naive servers: the reference for IntervalPool. Every
// server is peeked and the minimum start wins, ties to the lower index.
type naivePool []*naiveIntervals

func newNaivePool(k int) naivePool {
	p := make(naivePool, k)
	for i := range p {
		p[i] = &naiveIntervals{}
	}
	return p
}

func (p naivePool) acquireAny(earliest, occupancy Time) (idx int, start Time) {
	start, at := p[0].peek(earliest, occupancy)
	for i := 1; i < len(p); i++ {
		if s, j := p[i].peek(earliest, occupancy); s < start {
			idx, start, at = i, s, j
		}
	}
	p[idx].commit(at, start, occupancy)
	return idx, start
}

// chargeScript drives an IntervalPool the way core.Ctx.Charge drives the
// HPU issue pool: more handler clocks than servers, each charging
// instruction-sized occupancies at its own (often stale) time, with think
// gaps that leave holes behind the frontier. earliest is drawn from these
// shapes:
//   - the handler's own clock;
//   - the end or start of one of the last ~64 spans of some server, give or
//     take one (where the tail gallop brackets its answer);
//   - the previous earliest again;
//   - just past the idlest server's tail, which grows every server's list;
//   - a stale time at or below a server's floor;
//   - just beyond the frontier.
type chargeScript struct {
	rng      *rand.Rand
	k        int
	lag      int  // near-tail draws reach back up to lag spans
	think    Time // handler think gaps are 1 to think
	clocks   []Time
	prev     Time
	frontier Time
}

func newChargeScript(seed int64, k, lag int, think Time) *chargeScript {
	return &chargeScript{
		rng: rand.New(rand.NewSource(seed)), k: k, lag: lag, think: think,
		clocks: make([]Time, 2*k+3),
	}
}

// next returns one request; ref is consulted for span positions only.
func (c *chargeScript) next(ref naivePool) (h int, earliest, occupancy Time) {
	r := c.rng
	h = r.Intn(len(c.clocks))
	switch x := r.Intn(100); {
	case x < 15:
		earliest = c.clocks[h]
	case x < 40:
		busy := ref[r.Intn(c.k)].busy
		if len(busy) == 0 {
			earliest = c.clocks[h]
			break
		}
		sp := busy[len(busy)-1-r.Intn(min(c.lag, len(busy)))]
		earliest = sp.end
		if r.Intn(3) == 0 {
			earliest = sp.start
		}
		earliest += Time(r.Intn(3)) - 1
	case x < 45:
		earliest = c.prev
	case x < 90:
		// Just past the idlest server's tail: the lower servers are busy
		// there, so the idlest one takes a new span behind a gap.
		idle := ref[0].tail()
		for _, s := range ref[1:] {
			idle = min(idle, s.tail())
		}
		earliest = idle + 1 + Time(r.Int63n(int64(c.think)))
	case x < 95:
		earliest = ref[r.Intn(c.k)].floor - Time(r.Intn(2))
	default:
		earliest = c.frontier + Time(r.Intn(8))
	}
	if earliest < 0 {
		earliest = 0
	}
	switch x := r.Intn(20); {
	case x < 1:
		occupancy = 0
	case x < 3:
		occupancy = Time(1 + r.Intn(3)) // fills think holes
	case x < 12:
		occupancy = Time(8 + r.Intn(17))
	default:
		occupancy = Time(30 + r.Intn(170))
	}
	c.prev = earliest
	return h, earliest, occupancy
}

// placed advances handler h's clock past its reservation.
func (c *chargeScript) placed(h int, start, occupancy Time) {
	end := start + occupancy
	c.clocks[h] = end + 1 + Time(c.rng.Int63n(int64(c.think)))
	if end > c.frontier {
		c.frontier = end
	}
}

// runChargeScript plays one script against the pool and the reference
// until every server has pruned (or maxOps), failing on the first
// disagreement. It returns how many servers pruned and the op count.
func runChargeScript(t testing.TB, seed int64, k, lag int, think Time, maxOps int) (pruned, ops int) {
	pool := NewIntervalPool("t", k)
	ref := newNaivePool(k)
	c := newChargeScript(seed, k, lag, think)
	for ops = 0; ops < maxOps; ops++ {
		h, earliest, occ := c.next(ref)
		gi, gs := pool.AcquireAny(earliest, occ)
		wi, ws := ref.acquireAny(earliest, occ)
		if gi != wi || gs != ws {
			t.Fatalf("seed %d k %d op %d: AcquireAny(%d, %d) = (server %d, %d), reference (server %d, %d)",
				seed, k, ops, earliest, occ, gi, gs, wi, ws)
		}
		c.placed(h, gs, occ)
		if ops%256 == 0 {
			pruned = 0
			for _, s := range ref {
				if s.floor > 0 {
					pruned++
				}
			}
			if pruned == k {
				break
			}
		}
	}
	return pruned, ops
}

// TestIntervalPoolMatchesNaive drives IntervalPool's one-pass placement
// (with its early stop and tail gallop) and k naive first-fit servers
// through Charge-shaped scripts and requires every (server, start) to
// match. Each script runs until every server has pruned its list at
// maxSpans, so lists hold 2k-4k spans for most of the run.
func TestIntervalPoolMatchesNaive(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			if pruned, ops := runChargeScript(t, int64(k), k, 64, 8, 200_000); pruned != k {
				t.Errorf("only %d of %d servers reached maxSpans in %d ops", pruned, k, ops)
			}
		})
	}
}

// FuzzIntervalPlacement runs Charge-shaped scripts of fuzzed seed, pool
// size (1, 2, 4 or 8 servers), near-tail reach (1-64 spans) and think gap
// against the naive reference, each until every server has pruned or a
// cap is hit.
func FuzzIntervalPlacement(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(63), uint8(7))
	f.Add(int64(5), uint8(1), uint8(15), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, kSel, lag, think uint8) {
		k := 1 << (kSel % 4)
		runChargeScript(t, seed, k, 1+int(lag%64), 1+Time(think%16), 12_000*k)
	})
}
