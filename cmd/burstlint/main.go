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
//	detlint      nondeterminism sources in simulation packages
//	hotalloc     heap allocations in //burstmem:hotpath functions
//	exhaustive   non-exhaustive switches over protocol enums
//	nilcheck     unguarded dereferences of possibly-nil *trace.Tracer values
//	errflow      error values dropped before reaching a check
//	idxrange     DRAM coordinates indexing mismatched-dimension containers
//	lockcheck    Lock without matching Unlock on some path to return
//	detflow      nondeterminism reached through out-of-scope callees
//	goroutcheck  loop capture, WaitGroup balance, unguarded shared writes
//	leakcheck    resources released on every path; no exit past a pending defer
//
// nilcheck/errflow/idxrange/lockcheck run a worklist dataflow solver over
// per-function control flow graphs (internal/analysis/cfg,
// internal/analysis/dataflow); detlint/hotalloc/exhaustive are single-pass
// AST walks. The rest are the interprocedural tier: they run once over
// the whole loaded program on top of a CHA call graph
// (internal/analysis/callgraph) and per-function effect summaries
// (internal/analysis/summary), each built once and shared through the
// program's result cache — `-timing` prints how long those shared builds
// took.
//
// Output is one diagnostic per line, `file:line:col: analyzer: message`,
// sorted by file, line, then analyzer name; paths are shown relative to
// the working directory when possible. `-json` emits the same findings as
// a JSON array of {file, line, col, analyzer, message, chain} objects —
// chain being the evidence trail (call path, alias chain) of
// interprocedural findings. Exit status is 1 when diagnostics survive, 2
// on load errors, 0 on a clean tree.
//
// Intentional exceptions are annotated in the source as
// `//lint:ignore <analyzer> <reason>` on (or directly above) the flagged
// line. scripts/ci.sh runs burstlint as a required stage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/detflow"
	"burstmem/internal/analysis/detlint"
	"burstmem/internal/analysis/errflow"
	"burstmem/internal/analysis/exhaustive"
	"burstmem/internal/analysis/goroutcheck"
	"burstmem/internal/analysis/hotalloc"
	"burstmem/internal/analysis/idxrange"
	"burstmem/internal/analysis/leakcheck"
	"burstmem/internal/analysis/lockcheck"
	"burstmem/internal/analysis/nilcheck"
)

// analyzers is the full suite, in registration order (output order is by
// position, not by analyzer).
var analyzers = []*analysis.Analyzer{
	detlint.Analyzer,
	hotalloc.Analyzer,
	exhaustive.Analyzer,
	nilcheck.Analyzer,
	errflow.Analyzer,
	idxrange.Analyzer,
	lockcheck.Analyzer,
	detflow.Analyzer,
	goroutcheck.Analyzer,
	leakcheck.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process effects injected, so the golden test can
// assert on the exact output and exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("burstlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	timing := fs.Bool("timing", false, "print interprocedural build times (callgraph, summary) to stderr")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array of {file, line, col, analyzer, message, chain} objects")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: burstlint [-timing] [-json] [packages]\n\nruns the burstmem analyzers (detlint, hotalloc, exhaustive, nilcheck,\nerrflow, idxrange, lockcheck, detflow, goroutcheck, leakcheck) over the\npackage patterns (default ./...)\n")
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
	prog := analysis.NewProgram(pkgs)
	diags := prog.Run(analyzers)
	if *timing {
		keys := make([]string, 0, len(prog.Timings))
		for k := range prog.Timings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stderr, "timing %s %dms\n", k, prog.Timings[k].Milliseconds())
		}
	}
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
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
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
			Chain:    d.Chain,
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
