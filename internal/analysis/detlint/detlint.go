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
//     scheduler interleaving is nondeterministic;
//   - import a package of this module that is outside the scope: every
//     in-module package a simulation runs is checked, so none can hide
//     one of the above behind an ordinary-looking call.
//
// The check applies to the simulation packages (internal/{core, memctrl,
// dram, sched, sim, bus, cache, cpu, trace} and the stats, u64map, deque,
// xrand, addrmap and workload packages they import); cmd/ front-ends may
// parallelize runs and time themselves freely. A finding is suppressed
// only by `//lint:ignore detlint <reason>`, like any other analyzer's.
package detlint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/astx"
)

// Analyzer is the detlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "forbid nondeterminism sources (map iteration, wall-clock time, global rand, goroutines) in simulation packages",
	Run:  run,
}

// simPackages are the import-path suffixes detlint applies to.
var simPackages = []string{
	"internal/core", "internal/memctrl", "internal/dram", "internal/sched",
	"internal/sim", "internal/bus", "internal/cache", "internal/cpu",
	"internal/trace", "internal/stats", "internal/u64map", "internal/deque",
	"internal/xrand", "internal/addrmap", "internal/workload",
}

func run(pass *analysis.Pass) {
	if !astx.InScope(pass.Pkg.Path(), simPackages) {
		return
	}
	// The module path is the first element of every package path in this
	// module.
	module, _, _ := strings.Cut(pass.Pkg.Path(), "/")
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch {
			case path == "math/rand" || path == "math/rand/v2":
				pass.Reportf(imp.Pos(), "import of %s: process-seeded randomness breaks reproducibility; use internal/xrand", path)
			case strings.HasPrefix(path, module+"/") && !astx.InScope(path, simPackages):
				pass.Reportf(imp.Pos(), "import of %s: simulation packages import only simulation packages of this module; add it to detlint's scope", path)
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
