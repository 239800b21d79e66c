package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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

// TestUntracedRun: without -trace, memsim prints the result and exports
// nothing — the trace block runs only when a tracer was attached.
func TestUntracedRun(t *testing.T) {
	stdout, stderr, code := memsim(t, small...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "benchmark         swim\n") || !strings.Contains(stdout, "read latency") {
		t.Errorf("result missing from output:\n%s", stdout)
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
