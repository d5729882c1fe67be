package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// pinsText lists the SHA-256 of every experiment's CSV (bench.Table.CSV)
// at the scales the workloads run, unimpaired.
//
//go:embed pins.txt
var pinsText string

// table5cScale8 is the unimpaired Table 5c CSV at scale 8, the reference
// the table5c-jitter invariants compare against. Its digest is pinned too.
//
//go:embed table5c_scale8.csv
var table5cScale8 []byte

type pinKey struct {
	exp   string
	scale int
}

// pins maps (experiment, scale) to the hex SHA-256 of its CSV.
type pins map[pinKey]string

// loadPins parses the embedded digest list and checks the embedded Table 5c
// reference against it.
func loadPins() (pins, error) {
	p, err := parsePins(pinsText)
	if err != nil {
		return nil, err
	}
	if err := p.check("table5c", 8, table5cScale8); err != nil {
		return nil, fmt.Errorf("embedded table5c_scale8.csv: %w", err)
	}
	return p, nil
}

// parsePins reads lines of "<experiment> <scale> <sha256>"; blank lines and
// lines starting with # are skipped.
func parsePins(text string) (pins, error) {
	p := pins{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		f := strings.Fields(t)
		if len(f) != 3 || len(f[2]) != 2*sha256.Size {
			return nil, fmt.Errorf("pins.txt:%d: want \"<experiment> <scale> <sha256>\", got %q", line, t)
		}
		scale, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("pins.txt:%d: scale %q: %w", line, f[1], err)
		}
		p[pinKey{f[0], scale}] = f[2]
	}
	return p, sc.Err()
}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check reports whether csv is the pinned output of exp at scale.
func (p pins) check(exp string, scale int, csv []byte) error {
	want, ok := p[pinKey{exp, scale}]
	if !ok {
		return fmt.Errorf("%s at scale %d: no pinned digest", exp, scale)
	}
	if got := digest(csv); got != want {
		return fmt.Errorf("%s at scale %d: CSV digest %s, pinned %s", exp, scale, got[:16], want[:16])
	}
	return nil
}

// checkJitterInvariants checks an impaired Table 5c against the unimpaired
// reference: the same programs, rank counts and message counts, row by row.
// Impaired timing columns are free to change, since a better recovery
// protocol changes them on purpose.
func checkJitterInvariants(ref, got []byte) error {
	refRows, gotRows := csvRows(ref), csvRows(got)
	if len(refRows) != len(gotRows) {
		return fmt.Errorf("table5c under jitter: %d lines, unimpaired has %d", len(gotRows), len(refRows))
	}
	for i := range refRows {
		r, g := refRows[i], gotRows[i]
		if len(r) != len(g) {
			return fmt.Errorf("table5c under jitter, line %d: %d columns, unimpaired has %d", i+1, len(g), len(r))
		}
		// Columns: program, p, msgs, then timing-derived percentages; the
		// header line must match whole.
		cols := 3
		if i == 0 {
			cols = len(r)
		}
		for c := 0; c < cols && c < len(r); c++ {
			if r[c] != g[c] {
				return fmt.Errorf("table5c under jitter, line %d column %d: %q, unimpaired has %q", i+1, c+1, g[c], r[c])
			}
		}
	}
	return nil
}

// csvRows splits CSV text (unquoted, as bench.Table.CSV writes it) into
// rows of cells.
func csvRows(b []byte) [][]string {
	var rows [][]string
	for _, line := range bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n")) {
		rows = append(rows, strings.Split(string(line), ","))
	}
	return rows
}
