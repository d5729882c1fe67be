package bench

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/netsim"
)

// TestTable5cRecoveryUnderDelay holds the recovery invariant on networks
// that delay packets and lose none: Table 5c at scale 8 must complete with
// zero give-ups and fewer retransmits than replayed messages, and under
// plain jitter with retransmits under 5% of them. The sender stops
// resending an RTS once the peer's NIC acks it, and each rank's RFC 6298
// estimator lifts the RTO above the round trip. latency=30us puts the
// round trip above the initial RTO, so only backoff lets a sample in.
//
// Replayed messages are counted from below: every application replays at
// least its baseline and its sPIN program set, each of msgs messages.
func TestTable5cRecoveryUnderDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("three impaired Table 5c regenerations; skipped in -short")
	}
	cases := []struct {
		impair string
		maxPct float64 // retransmits as a percentage of replayed messages
	}{
		{"jitter=10us,seed=7", 5},
		{"latency=30us", 100},
		{"latency=5us,jitter=40us,seed=3", 100},
	}
	pool := NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	var wg sync.WaitGroup
	for _, tc := range cases {
		im, err := netsim.ParseImpairment(tc.impair)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := table5cSweep(8)
			tab, err := s.Run(RunOptions{Pool: pool, Impairment: im})
			if err != nil {
				t.Errorf("%s: %v", tc.impair, err)
				return
			}
			var replayed uint64
			for _, row := range tab.Rows {
				n, err := strconv.ParseUint(row[2], 10, 64)
				if err != nil {
					t.Errorf("%s: msgs column %q: %v", tc.impair, row[2], err)
					return
				}
				replayed += 2 * n
			}
			f := s.Faults()
			if f.Lost != 0 || f.Blocked != 0 || f.Corrupted != 0 {
				t.Errorf("%s: the network lost packets (%+v); the invariant is for delay only", tc.impair, f)
			}
			if f.RetransFails != 0 {
				t.Errorf("%s: %d exchanges gave up on a network that loses nothing", tc.impair, f.RetransFails)
			}
			if pct := 100 * float64(f.Retransmits) / float64(replayed); pct >= tc.maxPct {
				t.Errorf("%s: %d retransmits for at least %d replayed messages (%.1f%%), want under %.0f%%",
					tc.impair, f.Retransmits, replayed, pct, tc.maxPct)
			}
		}()
	}
	wg.Wait()
}
