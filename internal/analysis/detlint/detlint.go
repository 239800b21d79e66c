// Package detlint forbids sources of nondeterminism in the simulation
// packages. The simulator's contract is bit-identical results for identical
// configurations (skip_test.go relies on it, and every reproduced paper
// table is only trustworthy because reruns reproduce it), so simulation
// logic must not:
//
//   - iterate over maps (`for range m`): Go randomizes map iteration order,
//     so any scheduling or accounting decision made inside such a loop can
//     differ between runs;
//   - read wall-clock time (time.Now / time.Since / time.Until): results
//     must depend on simulated cycles only;
//   - use math/rand or math/rand/v2: their global generators are seeded
//     per-process; deterministic streams come from internal/xrand;
//   - spawn goroutines: the cycle loop is single-threaded by design, and
//     scheduler interleaving is nondeterministic.
//
// The check applies to the simulation packages (internal/{core, memctrl,
// dram, sched, sim, bus, cache, cpu, trace}); cmd/ front-ends may
// parallelize runs and time themselves freely. A finding is suppressed
// only by `//lint:ignore detlint <reason>`, like any other analyzer's.
package detlint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"burstmem/internal/analysis"
)

// Analyzer is the detlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "forbid nondeterminism sources (map iteration, wall-clock time, global rand, goroutines) in simulation packages",
	Run:  run,
}

// SimPackages are the import-path suffixes detlint applies to. detflow
// shares the list: its interprocedural reach checks start from exactly the
// packages whose direct nondeterminism detlint bans.
var SimPackages = []string{
	"internal/core", "internal/memctrl", "internal/dram", "internal/sched",
	"internal/sim", "internal/bus", "internal/cache", "internal/cpu",
	"internal/trace",
}

// InSimScope reports whether the package is simulation logic.
func InSimScope(path string) bool {
	for _, s := range SimPackages {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) {
	if !InSimScope(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s: process-seeded randomness breaks reproducibility; use internal/xrand", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypesInfo.Types[n.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over map %s: iteration order is nondeterministic in simulation logic", types.ExprString(n.X))
					}
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawn in simulation logic: the cycle loop must stay single-threaded")
			case *ast.SelectorExpr:
				if obj := wallClockFunc(pass, n); obj != "" {
					pass.Reportf(n.Pos(), "call of time.%s: simulation state must depend on simulated cycles, not wall-clock time", obj)
				}
			}
			return true
		})
	}
}

// wallClockFunc returns the name of the time-package wall-clock function
// the selector refers to, or "".
func wallClockFunc(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "time" {
		return ""
	}
	switch sel.Sel.Name {
	case "Now", "Since", "Until":
		return sel.Sel.Name
	}
	return ""
}
