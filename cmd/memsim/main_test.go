package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"burstmem/internal/workload"
)

// childArgs carries a memsim command line, newline-separated, into a child
// copy of the test binary; TestMain then runs main with it instead of the
// tests.
const childArgs = "MEMSIM_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgs); ok {
		os.Args = append([]string{"memsim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// memsim runs main in a child process and returns its stdout, stderr and
// exit status.
func memsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childArgs+"="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

var small = []string{"-bench", "swim", "-n", "2000", "-warmup", "0"}

// TestUntracedRun: without -trace, memsim prints the result and the cycle
// census and exports nothing — the trace block runs only when a tracer was
// attached.
func TestUntracedRun(t *testing.T) {
	stdout, stderr, code := memsim(t, small...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "benchmark         swim\n") || !strings.Contains(stdout, "read latency") {
		t.Errorf("result missing from output:\n%s", stdout)
	}
	if !regexp.MustCompile(`\nmemory cycles by  stepped \d+  cpu-inert \d+  skipped \d+  \(warmup included\)\n`).MatchString(stdout) {
		t.Errorf("cycle census missing from output:\n%s", stdout)
	}
	if strings.Contains(stdout, "\ntrace ") {
		t.Errorf("untraced run printed a trace line:\n%s", stdout)
	}
}

// TestTracedRun: -trace writes a Chrome trace_event file that parses.
func TestTracedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	stdout, stderr, code := memsim(t, slices.Concat(small, []string{"-trace", path, "-trace-events", "4096"})...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "\ntrace ") {
		t.Errorf("traced run printed no trace line:\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Errorf("%s is not valid JSON (%d bytes)", path, len(data))
	}
}

// TestClampedLatencies: the read-latency histogram's last bucket also
// holds every longer latency, so a percentile that lands there prints as
// a lower bound, and so does the traced distribution's last bin.
func TestClampedLatencies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	stdout, stderr, code := memsim(t, "-bench", "lucas", "-row-policy", "cpa", "-mech", "Burst_WP",
		"-n", "20000", "-warmup", "5000", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, ", p99 >=2047)\n") {
		t.Errorf("p99 not printed as >=2047:\n%s", stdout)
	}
	if !regexp.MustCompile(`\n  >=1008 +\d+ +\d+\.\d%\n`).MatchString(stdout) || strings.Contains(stdout, "[1008,1024)") {
		t.Errorf("traced overflow bin not printed as >=1008:\n%s", stdout)
	}
}

// TestTraceEventsBelowOne: a ring that holds no event is an operator
// error, not a silent one-event ring.
func TestTraceEventsBelowOne(t *testing.T) {
	for _, events := range []string{"0", "-5"} {
		path := filepath.Join(t.TempDir(), "trace.json")
		stdout, stderr, code := memsim(t, slices.Concat(small, []string{"-trace", path, "-trace-events", events})...)
		if code != 1 {
			t.Errorf("-trace-events %s: exit %d, want 1; stdout:\n%s", events, code, stdout)
		}
		if !strings.HasPrefix(stderr, "memsim: ") || !strings.Contains(stderr, "-trace-events "+events) {
			t.Errorf("-trace-events %s: stderr %q, want a memsim: line naming the flag", events, stderr)
		}
	}
}

// TestUnknownBenchmark: a bad profile name is a clean error exit.
func TestUnknownBenchmark(t *testing.T) {
	_, stderr, code := memsim(t, "-bench", "nope")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(stderr, "memsim: ") {
		t.Errorf("stderr %q lacks the memsim: prefix", stderr)
	}
}

// TestMemFracOutOfRange: every nonzero -memfrac reaches the profile
// check, so a negative one is rejected like one above 1 instead of
// silently running the profile's own fraction, and NaN, which fails every
// comparison, is rejected instead of running with no memory operation.
func TestMemFracOutOfRange(t *testing.T) {
	for _, frac := range []string{"-0.5", "1.5", "NaN"} {
		stdout, stderr, code := memsim(t, slices.Concat(small, []string{"-memfrac", frac})...)
		if code != 1 {
			t.Errorf("-memfrac %s: exit %d, want 1; stdout:\n%s", frac, code, stdout)
		}
		if want := "MemFraction " + frac + " out of [0,1]"; !strings.HasPrefix(stderr, "memsim: ") || !strings.Contains(stderr, want) {
			t.Errorf("-memfrac %s: stderr %q, want a memsim: line containing %q", frac, stderr, want)
		}
	}
}

// TestReplayRun: -replay runs a recorded trace and leaves the file as it
// was; a malformed trace is a clean error exit naming its file and line.
func TestReplayRun(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "mcf.trace")
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := workload.WriteTrace(&rec, workload.MustNew(prof), 5000); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, rec.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := memsim(t, "-replay", good, "-n", "2000", "-warmup", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "benchmark         "+good+"\n") {
		t.Errorf("result does not name the replayed trace:\n%s", stdout)
	}
	if after, err := os.ReadFile(good); err != nil || !bytes.Equal(after, rec.Bytes()) {
		t.Errorf("replay changed the trace file (err %v)", err)
	}

	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("# bad op on line 3\nL 0x40\nQ 12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = memsim(t, "-replay", bad, "-n", "2000", "-warmup", "0")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if want := "memsim: trace " + bad + ":3: "; !strings.HasPrefix(stderr, want) {
		t.Errorf("stderr %q, want prefix %q", stderr, want)
	}
}
