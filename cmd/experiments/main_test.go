package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// childArgs carries an experiments command line, newline-separated, into a
// child copy of the test binary; TestMain then runs main with it instead
// of the tests.
const childArgs = "EXPERIMENTS_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgs); ok {
		os.Args = append([]string{"experiments"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFatalKeepsProfile: every fatal exit prints one error line and leaves
// a complete -cpuprofile. The three commands fail on the main goroutine
// (an unknown experiment), in name resolution before the pool starts (an
// unknown benchmark) and inside sim.Run on eight concurrent workers (a
// zero instruction target); the last is the one that reaches the workers'
// error slots. Under go test -race the child is race-built too.
func TestFatalKeepsProfile(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "bogus"},
		{"-exp", "fig10", "-bench", "swim", "-n", "0", "-parallel", "8"},
		{"-exp", "fig10", "-bench", "nosuch", "-parallel", "8"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			prof := filepath.Join(t.TempDir(), "cpu.prof")
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), childArgs+"="+strings.Join(append(args, "-cpuprofile", prof), "\n"))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("run: %v, want exit status 1 (stderr: %s)", err, stderr.String())
			}
			if lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "experiments: ") {
				t.Errorf("stderr is not one experiments: line:\n%s", stderr.String())
			}
			f, err := os.Open(prof)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			zr, err := gzip.NewReader(f)
			if err == nil {
				_, err = io.Copy(io.Discard, zr)
			}
			if err != nil {
				t.Errorf("profile is not a complete gzip stream: %v", err)
			}
		})
	}
}
