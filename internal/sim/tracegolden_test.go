package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"burstmem/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_golden.txt from current output")

// TestTracedStreamGolden pins every mechanism's traced output at
// diffConfig: the complete event stream, the lifetime event counts and the
// interval metrics of one streaming profile (swim) and one write-heavy
// profile (lucas), hashed per run into a committed golden file. Results
// alone miss a change that only reorders same-cycle events (two marks, or a
// mark and a command, swapping places within one cycle); this test fails
// on it.
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/sim -run TestTracedStreamGolden -update
func TestTracedStreamGolden(t *testing.T) {
	var got bytes.Buffer
	for _, bench := range []string{"swim", "lucas"} {
		for _, mech := range append(conservationMechanisms(), "Burst_Naive") {
			run := runTraced(diffConfig(), bench, mech)
			if run.err != nil {
				t.Fatalf("%s/%s: %v", bench, mech, run.err)
			}
			if d := run.tr.Dropped(); d != 0 {
				t.Fatalf("%s/%s: the ring dropped %d events; the hash would miss them", bench, mech, d)
			}
			fmt.Fprintf(&got, "%s/%s %s\n", bench, mech, traceHash(run.tr))
		}
	}

	golden := filepath.Join("testdata", "trace_golden.txt")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("traced output diverges from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}

// traceHash digests a tracer's event stream, lifetime counts and interval
// metrics, prefixed with the event count.
func traceHash(tr *trace.Tracer) string {
	h := sha256.New()
	events := tr.Events()
	for _, ev := range events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	for k := trace.Kind(0); k < trace.EvSchedPick+1; k++ {
		fmt.Fprintf(h, "%d %d\n", k, tr.Count(k))
	}
	for _, iv := range tr.Intervals() {
		fmt.Fprintf(h, "%+v\n", iv)
	}
	return fmt.Sprintf("%d %x", len(events), h.Sum(nil))
}
