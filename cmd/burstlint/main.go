// Command burstlint is the repository's multichecker: it runs the custom
// correctness analyzers over the given package patterns and exits non-zero
// when any diagnostic survives.
//
// Usage:
//
//	go run ./cmd/burstlint ./...
//
// Analyzers (see each package's doc for the exact contract):
//
//	detlint     nondeterminism sources in simulation packages
//	exhaustive  non-exhaustive switches over protocol enums
//	errflow     error values dropped before reaching a check
//
// errflow runs a worklist dataflow solver over per-function control flow
// graphs (internal/analysis/cfg, internal/analysis/dataflow);
// detlint/exhaustive are single-pass AST walks.
//
// Output is one diagnostic per line, `file:line:col: analyzer: message`,
// sorted by file, line, then analyzer name; paths are shown relative to
// the working directory when possible. `-json` emits the same findings as
// a JSON array of {file, line, col, analyzer, message} objects. Exit
// status is 1 when diagnostics survive, 2 on load errors, 0 on a clean
// tree.
//
// Intentional exceptions are annotated in the source as
// `//lint:ignore <analyzer> <reason>` on (or directly above) the flagged
// line; a directive naming any other analyzer is itself reported, as
// `lint`. scripts/ci.sh runs burstlint as a required stage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/detlint"
	"burstmem/internal/analysis/errflow"
	"burstmem/internal/analysis/exhaustive"
)

// analyzers is the full suite, in registration order (output order is by
// position, not by analyzer).
var analyzers = []*analysis.Analyzer{
	detlint.Analyzer,
	exhaustive.Analyzer,
	errflow.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process effects injected, so the golden test can
// assert on the exact output and exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("burstlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array of {file, line, col, analyzer, message} objects")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: burstlint [-json] [packages]\n\nruns the burstmem analyzers (detlint, exhaustive, errflow)\nover the package patterns (default ./...)\n")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "burstlint:", err)
		return 2
	}
	diags := analysis.Run(pkgs, analyzers)
	cwd, err := os.Getwd()
	if err != nil {
		cwd = "" // keep absolute paths rather than guess
	}
	if *jsonOut {
		if err := writeJSON(stdout, cwd, diags); err != nil {
			fmt.Fprintln(stderr, "burstlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, relativize(cwd, d.String()))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "burstlint: %d issue(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiag is the -json wire form of one finding. The field set is the
// machine contract scripts build on; the golden schema test pins it.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON renders the diagnostics as one indented JSON array (an empty
// run prints []), with file paths relativized like the text form.
func writeJSON(w io.Writer, cwd string, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     relativize(cwd, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// relativize rewrites a leading absolute file path to be relative to the
// working directory, keeping output stable across checkouts (and golden
// tests honest).
func relativize(cwd, diag string) string {
	if cwd == "" || !strings.HasPrefix(diag, cwd+string(filepath.Separator)) {
		return diag
	}
	return diag[len(cwd)+1:]
}
