package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"burstmem/internal/workload"
)

// childArgs carries a tracegen command line, newline-separated, into a
// child copy of the test binary; TestMain then runs main with it instead
// of the tests.
const childArgs = "TRACEGEN_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgs); ok {
		os.Args = append([]string{"tracegen"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracegen runs main in a child process and returns its stdout, stderr
// and exit status.
func tracegen(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// TestOpCountBelowOne: a count below one is a clean error exit, not a
// summary "over -5 ops" or a recorded trace that memsim -replay rejects
// as empty.
func TestOpCountBelowOne(t *testing.T) {
	for _, n := range []string{"-5", "0"} {
		path := filepath.Join(t.TempDir(), "f.trace")
		stdout, stderr, code := tracegen(t, "-n", n, "-record", path)
		if code != 1 {
			t.Errorf("-n %s: exit %d, want 1; stdout:\n%s", n, code, stdout)
		}
		if want := "tracegen: -n " + n + ": "; !strings.HasPrefix(stderr, want) {
			t.Errorf("-n %s: stderr %q, want prefix %q", n, stderr, want)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("-n %s: wrote %s (stat err %v)", n, path, err)
		}
	}
}

// TestRecordReplays: -record writes a trace that replays, op for op, the
// stream workload.New produces for the profile.
func TestRecordReplays(t *testing.T) {
	const n = 5000
	path := filepath.Join(t.TempDir(), "mcf.trace")
	if _, stderr, code := tracegen(t, "-bench", "mcf", "-n", "5000", "-record", path); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replay, err := workload.ParseTrace(path, f)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Len() != n {
		t.Fatalf("trace holds %d ops, want %d", replay.Len(), n)
	}
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNew(prof)
	for i := 0; i < n; i++ {
		if got, want := replay.Next(), gen.Next(); got != want {
			t.Fatalf("op %d: replayed %+v, generated %+v", i, got, want)
		}
	}
}
