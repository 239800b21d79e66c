package bench

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"burstmem/internal/sim"
	"burstmem/internal/stats"
)

// digest hashes every field of a Result, the histogram buckets included,
// so two Results share a digest exactly when reflect.DeepEqual holds for
// them. Floats print in shortest round-trip form, so equal digests mean
// bit-identical values.
func digest(r sim.Result) string {
	h := sha256.New()
	hists := []*stats.Histogram{r.OutstandingReads, r.OutstandingWrites}
	r.OutstandingReads, r.OutstandingWrites = nil, nil
	fmt.Fprintf(h, "%+v\n", r)
	for _, hist := range hists {
		if hist == nil {
			fmt.Fprintln(h, "nil")
			continue
		}
		fmt.Fprintf(h, "%d %d:", hist.Size(), hist.Total())
		for v := 0; v < hist.Size(); v++ {
			fmt.Fprintf(h, " %d", hist.Count(v))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestsJSON maps seed -> workload -> job key -> Result digest, for the
// default seed 0 and the held-out seed 7. Regenerate it with
// `go test -run TestUpdateDigests -update` after an intended model change.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// digestTable is the decoded form of testdata/digests.json.
type digestTable map[string]map[string]map[string]string

// committedDigests returns the committed digests of one workload at one
// seed, or nil when none were committed for that seed.
func committedDigests(workload string, seed uint64) (map[string]string, error) {
	var d digestTable
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("bench: testdata/digests.json: %w", err)
	}
	return d[fmt.Sprint(seed)][workload], nil
}

// fig10Mechs are the Figure 10 columns, each normalized to BkInOrder.
var fig10Mechs = []string{"RowHit", "Intel", "Intel_RP", "Burst", "Burst_RP", "Burst_WP", "Burst_TH"}

// fig10Rows renders the Figure 10 row of each benchmark exactly as
// cmd/experiments prints it, from the grid's CPU cycle counts keyed by
// Job.Key.
func fig10Rows(benches []string, cycles map[string]uint64) ([]string, error) {
	t := stats.NewTable(append([]string{"benchmark"}, fig10Mechs...)...)
	for _, b := range benches {
		base, ok := cycles[b+"/BkInOrder"]
		if !ok || base == 0 {
			return nil, fmt.Errorf("bench: no BkInOrder run of %s", b)
		}
		row := []any{b}
		for _, m := range fig10Mechs {
			c, ok := cycles[b+"/"+m]
			if !ok {
				return nil, fmt.Errorf("bench: no %s run of %s", m, b)
			}
			row = append(row, fmt.Sprintf("%.3f", float64(c)/float64(base)))
		}
		t.AddRow(row...)
	}
	lines := strings.Split(strings.TrimSuffix(t.String(), "\n"), "\n")
	return lines[2:], nil // drop the header and its rule
}

// referenceFig10Rows reads the Figure 10 rows of the given benchmarks from
// an experiments_output.txt.
func referenceFig10Rows(path string, benches []string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := make(map[string]bool, len(benches))
	for _, b := range benches {
		want[b] = true
	}
	rows := make(map[string]string)
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "======== ") {
			in = strings.HasPrefix(line, "======== Figure 10:")
			continue
		}
		if fields := strings.Fields(line); in && len(fields) > 0 && want[fields[0]] {
			rows[fields[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, b := range benches {
		if _, ok := rows[b]; !ok {
			return nil, fmt.Errorf("bench: %s has no Figure 10 row for %s", path, b)
		}
	}
	return rows, nil
}
