package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/netsim"
)

// TestTable5cOrderGolden pins the absolute bytes of Table 5c at scale 8:
// the SHA-256 of its CSV followed by its fault counters, on a perfect
// network and under loss. The other determinism tests compare execution
// shapes against each other; this one holds the event order itself.
// Events that share a deadline run in (stamp, pri, seq) order, and each
// key decides real ties here: with the comparator cut to (at, seq) the
// lossy hash changes, and with (at, pri, seq) the plain one does too.
func TestTable5cOrderGolden(t *testing.T) {
	cases := []struct{ impair, want string }{
		{"", "5e9bc0602ef62c841a35d3a15bff4ec2c208f17ab77752676f249edb4fdb0e2f"},
		{"loss=0.002,seed=11", "d5539ff2b29d6cdf136d82f910d170d294de3346a0ff875e45a2f897fd4cc952"},
	}
	for _, tc := range cases {
		var im *netsim.Impairment
		if tc.impair != "" {
			var err error
			if im, err = netsim.ParseImpairment(tc.impair); err != nil {
				t.Fatal(err)
			}
		}
		s := table5cSweep(8)
		tab, err := s.Run(RunOptions{Impairment: im})
		if err != nil {
			t.Fatalf("impair=%q: %v", tc.impair, err)
		}
		h := sha256.New()
		tab.CSV(h)
		fmt.Fprintf(h, "%+v\n", s.Faults())
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("impair=%q: table5c scale 8 hash %s, want %s (faults %+v)", tc.impair, got, tc.want, s.Faults())
		}
	}
}
