package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
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
		{"loss=0.002,seed=11", "be0fc2e8b922b6b5dc2d1bd0b64466ad0fd886023757878d854f72424c28b2bd"},
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

// updateGolden rewrites testdata/golden.txt from the current code instead
// of checking it: go test ./internal/bench -run TestGoldenDigests -update.
// A regenerated file must come with a note naming every row that moved and
// why.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const goldenPath = "testdata/golden.txt"

// goldenImpairs are the two fault models the byte oracle pins besides the
// perfect network: lossy-and-jittered (most experiments fail honestly
// under it, and the error text is part of the contract) and lightly lossy.
var goldenImpairs = []string{"loss=0.01,jitter=2us,seed=7", "loss=0.002,seed=11"}

type goldenCase struct {
	exp    string
	scale  int
	impair string // "-" = perfect network
}

func (c goldenCase) key() string { return fmt.Sprintf("%s %d %s", c.exp, c.scale, c.impair) }

// goldenCases lists every experiment at scale 4 and scale 1 on a perfect
// network, and at scale 4 under each fault model, in registry order.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, e := range Experiments() {
		out = append(out, goldenCase{e.ID, 4, "-"}, goldenCase{e.ID, 1, "-"})
		for _, im := range goldenImpairs {
			out = append(out, goldenCase{e.ID, 4, im})
		}
	}
	return out
}

// goldenDigest runs one case on the pool and hashes what a run shows: the
// CSV, the fault counters and the error text.
func goldenDigest(c goldenCase, pool *Pool) (string, error) {
	exp, ok := FindExperiment(c.exp)
	if !ok {
		return "", fmt.Errorf("experiment %q not registered", c.exp)
	}
	var im *netsim.Impairment
	if c.impair != "-" {
		var err error
		if im, err = netsim.ParseImpairment(c.impair); err != nil {
			return "", err
		}
	}
	s := exp.Build(c.scale)
	tab, err := s.Run(RunOptions{Pool: pool, Impairment: im})
	h := sha256.New()
	if tab != nil {
		tab.CSV(h)
	}
	fmt.Fprintf(h, "%+v\n", s.Faults())
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestGoldenDigests is the byte oracle of the determinism contract: the
// printed bytes of all thirteen experiments, plain at two scales and under
// two fault models, must hash to the rows of testdata/golden.txt. Failing
// points are pinned too. The other determinism tests compare execution
// shapes against each other; this one holds the absolute output, so a
// change that moves every shape alike still fails, naming the experiment,
// scale and fault model.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment four times; skipped in -short")
	}
	cases := goldenCases()
	pool := NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	got := make([]string, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = goldenDigest(c, pool)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cases[i].key(), err)
		}
	}

	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Byte oracle for TestGoldenDigests: <exp> <scale> <impair|-> <sha256>.\n")
		b.WriteString("# The digest covers the CSV, the fault counters and the error text of one\n")
		b.WriteString("# run. Regenerate with: go test ./internal/bench -run TestGoldenDigests -update\n")
		for i, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.key(), got[i])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := make(map[string]string)
	for n, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("%s:%d: want 4 fields, got %q", goldenPath, n+1, line)
		}
		want[strings.Join(f[:3], " ")] = f[3]
	}
	if len(want) != len(cases) {
		t.Errorf("%s has %d rows, the oracle runs %d cases", goldenPath, len(want), len(cases))
	}
	for i, c := range cases {
		w, ok := want[c.key()]
		switch {
		case !ok:
			t.Errorf("%s: no row in %s", c.key(), goldenPath)
		case w != got[i]:
			t.Errorf("%s: digest %s, want %s", c.key(), got[i], w)
		}
	}
}
