package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"burstmem/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden experiment output")

// TestGoldenSmallSlice re-runs the whole experiment table over two
// benchmarks and diffs the output byte-for-byte against a committed golden
// file, so bit-identity of the harness no longer depends on manually
// eyeballing experiments_output.txt. Running every experiment in one
// harness also reads back the jobs they share through the memo: the
// Figure 11/12 sweep endpoints are Figure 7's Burst_WP, Burst_TH and
// Burst_RP runs, and scaling's DDR2-800 rows are Figure 7's default machine.
//
// Regenerate after an intentional model change with:
//
//	go test ./cmd/experiments -run TestGoldenSmallSlice -update
func TestGoldenSmallSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix is too slow for -short")
	}
	// The harness reads its parameters from the package-level flags; pin
	// them to the small deterministic slice regardless of defaults.
	oldN, oldWarmup, oldPar, oldCSV := *flagN, *flagWarmup, *flagParallel, *flagCSV
	defer func() {
		*flagN, *flagWarmup, *flagParallel, *flagCSV = oldN, oldWarmup, oldPar, oldCSV
	}()
	*flagN = 30_000
	*flagWarmup = 30_000
	// One worker per Figure 7 job (2 benchmarks x 8 mechanisms), not the
	// host's CPU count: every job then holds the pool at once, so -race
	// sees a worker that touches shared harness state (such as the
	// h.memo job map) race with all the others. With fewer workers the
	// racing accesses lie whole jobs apart, and the detector, which keeps
	// only recent history, mostly misses them (DESIGN.md §8).
	*flagParallel = 16
	*flagCSV = ""

	h := &harness{benches: []string{"swim", "mcf"}, memo: make(map[job]sim.Result)}
	got := captureStdout(t, func() {
		for _, e := range experiments {
			e.run(h)
		}
	})

	golden := filepath.Join("testdata", "golden_small.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output diverges from %s at line %d:\n got: %q\nwant: %q\n(run with -update after an intentional model change)",
				golden, i+1, g, w)
		}
	}
	t.Fatalf("output differs from %s only in trailing bytes (%d vs %d)", golden, len(got), len(want))
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() {
		os.Stdout = old
	}()
	f()
	os.Stdout = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done
}
