package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden file from current output")

// TestGoldenDirty pins the CLI contract on a tree with findings: one
// diagnostic per line, sorted by file then line then analyzer, paths
// relative to the working directory, exit status 1. The dram corpus
// package sits under a testdata/src/internal/dram path so detlint treats
// it as simulation scope; helpers is the out-of-scope package its import
// finding names (go list never descends into testdata, so each directory
// is passed explicitly).
func TestGoldenDirty(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"./testdata/src/dirty",
		"./testdata/src/helpers",
		"./testdata/src/internal/dram",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d on a dirty tree, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "issue(s)") {
		t.Errorf("stderr missing the issue count: %q", stderr.String())
	}

	goldenPath := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got, want := stdout.String(), string(golden); got != want {
		t.Errorf("output differs from %s (re-run with -update after intended changes)\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}

	// Structural assertions independent of the golden bytes, so a stale
	// -update cannot weaken the format contract.
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	type pos struct {
		file string
		line int
	}
	var prev pos
	seen := map[string]bool{}
	for _, l := range lines {
		parts := strings.SplitN(l, ":", 5)
		if len(parts) != 5 {
			t.Fatalf("line %q is not file:line:col: analyzer: message", l)
		}
		if filepath.IsAbs(parts[0]) {
			t.Errorf("path %q not relativized", parts[0])
		}
		seen[strings.TrimSpace(parts[3])] = true
		cur := pos{parts[0], atoi(t, parts[1])}
		if prev.file != "" && (cur.file < prev.file || (cur.file == prev.file && cur.line < prev.line)) {
			t.Errorf("diagnostics out of order: %v after %v", cur, prev)
		}
		prev = cur
	}
	for _, a := range []string{"detlint", "hotalloc", "errflow"} {
		if !seen[a] {
			t.Errorf("no %s diagnostic in golden output (analyzers seen: %v)", a, seen)
		}
	}
}

// TestGoldenClean pins the other half of the contract: a clean tree
// produces no output and exit status 0.
func TestGoldenClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/src/clean"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d on a clean tree, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean tree produced output: %s", stdout.String())
	}
}

// TestExitCodeLoadFailure: an unresolvable pattern is an operator error,
// distinct from findings.
func TestExitCodeLoadFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./no/such/dir"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code %d for a bad pattern, want 2 (stderr: %s)", code, stderr.String())
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("non-numeric line field %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// TestGoldenJSON pins the -json machine contract against the same dirty
// corpus: the array carries exactly the text-mode findings (same order,
// same positions, relativized paths) as {file, line, col, analyzer,
// message} objects and nothing else — DisallowUnknownFields makes a
// silently added field a test failure, so the schema scripts parse cannot
// drift without showing up here.
func TestGoldenJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-json",
		"./testdata/src/dirty",
		"./testdata/src/helpers",
		"./testdata/src/internal/dram",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d on a dirty tree, want 1 (stderr: %s)", code, stderr.String())
	}

	dec := json.NewDecoder(bytes.NewReader(stdout.Bytes()))
	dec.DisallowUnknownFields()
	var got []jsonDiag
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("output is not a jsonDiag array: %v\n%s", err, stdout.String())
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(got) != len(lines) {
		t.Fatalf("%d JSON findings, want %d (one per golden text line)", len(got), len(lines))
	}

	for i, d := range got {
		if filepath.IsAbs(d.File) {
			t.Errorf("finding %d: path %q not relativized", i, d.File)
		}
		if d.Line <= 0 || d.Col <= 0 {
			t.Errorf("finding %d: non-positive position %d:%d", i, d.Line, d.Col)
		}
		rendered := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		if rendered != lines[i] {
			t.Errorf("finding %d diverges from text mode:\n json: %s\n text: %s", i, rendered, lines[i])
		}
	}
}
