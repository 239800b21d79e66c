// Package errflow checks that error values in the simulation and command
// packages flow into a check before dying. Burst-scheduling experiments
// are only as trustworthy as their I/O: a sweep that silently fails to
// flush its CSV output or a trace parser that drops a close error
// produces plausible-looking garbage, so in internal/sim,
// internal/workload and cmd/* every error must reach a use — a
// comparison, a return, an argument — on some path, or carry an explicit
// `//lint:ignore errflow <reason>`.
//
// Two failure shapes are reported:
//
//   - a call with an error result used as a bare statement
//     (`f.Close()`): the error is dropped at birth. Writing `_ = f.Close()`
//     is the same drop with makeup on and is flagged identically;
//   - an error assigned to a variable that is dead at that point: no
//     path from the assignment reaches a read of the variable before it
//     is overwritten or goes out of scope. This is classic backward
//     liveness over the CFG, so `err := f(); if c { return }; check(err)`
//     is fine (one live path suffices) while `err := f(); err = g(...)`
//     flags the first assignment.
//
// Deliberate exclusions: deferred calls (`defer f.Close()` on read-only
// files is idiomatic), the fmt.Print/Fprint family (best-effort
// diagnostics to stderr), and named error results, which are live at
// every return by construction.
package errflow

import (
	"go/ast"
	"go/types"
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/astx"
	"burstmem/internal/analysis/cfg"
	"burstmem/internal/analysis/dataflow"
)

// Analyzer is the errflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "error values in internal/sim, internal/workload and cmd/* must reach a check before going dead",
	Run:  run,
}

// scope lists the package-path patterns the analyzer applies to.
var scope = []string{"internal/sim", "internal/workload", "cmd/*"}

func run(pass *analysis.Pass) {
	if !astx.InScope(pass.Pkg.Path(), scope) {
		return
	}
	for _, file := range pass.Files {
		for _, fi := range astx.Funcs(file) {
			if fi.Body() == nil {
				continue
			}
			checkFunc(pass, fi.Node)
		}
	}
}

func checkFunc(pass *analysis.Pass, fn ast.Node) {
	g := cfg.New(fn)
	p := &problem{pass: pass, results: namedErrorResults(pass, fn)}
	res := dataflow.Solve[liveSet](g, p)

	// Replay each block backward: before undoing a node's transfer the
	// current set is the liveness just after that node — the state that
	// decides whether an error assigned there is ever read.
	for _, b := range g.Blocks {
		live := p.cloneSet(res.In[b]) // backward: In is the fact at block end
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			n := b.Nodes[i]
			p.checkNode(n, live)
			p.stepBack(n, live)
		}
	}
}

// liveSet is the set of error-typed variables live at a program point.
type liveSet map[*types.Var]bool

type problem struct {
	pass    *analysis.Pass
	results liveSet // named error results of the function under analysis
}

func (p *problem) Direction() dataflow.Direction { return dataflow.Backward }
func (p *problem) Bottom() liveSet               { return liveSet{} }

// Boundary: named error results are live at exit — a bare return reads
// them, and the caller receives whatever they hold.
func (p *problem) Boundary() liveSet { return p.cloneSet(p.results) }

// namedErrorResults resolves the function's named error-typed result
// variables.
func namedErrorResults(pass *analysis.Pass, fn ast.Node) liveSet {
	out := liveSet{}
	var ft *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
	case *ast.FuncLit:
		ft = fn.Type
	}
	if ft == nil || ft.Results == nil {
		return out
	}
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isErrorType(v.Type()) {
				out[v] = true
			}
		}
	}
	return out
}

func (p *problem) Join(a, b liveSet) liveSet {
	out := liveSet{}
	for v := range a {
		out[v] = true
	}
	for v := range b {
		out[v] = true
	}
	return out
}

func (p *problem) Equal(a, b liveSet) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func (p *problem) Transfer(b *cfg.Block, in liveSet) liveSet {
	out := p.cloneSet(in)
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		p.stepBack(b.Nodes[i], out)
	}
	return out
}

func (p *problem) cloneSet(s liveSet) liveSet {
	out := liveSet{}
	for v := range s {
		out[v] = true
	}
	return out
}

// stepBack undoes one node: kill assignment targets, then gen reads.
func (p *problem) stepBack(n ast.Node, live liveSet) {
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			if v := p.errVar(l); v != nil {
				delete(live, v)
			}
		}
		for _, r := range as.Rhs {
			p.genReads(r, live)
		}
		return
	}
	p.genReads(n, live)
}

// genReads adds every error variable read inside the subtree. Reads
// inside nested function literals count — a closure capturing err keeps
// it alive — and assignments inside literals are conservatively treated
// as reads too (the closure may run zero or many times).
func (p *problem) genReads(n ast.Node, live liveSet) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if v := p.errVar(id); v != nil {
				live[v] = true
			}
		}
		return true
	})
}

// checkNode reports dead error births in one node, given liveness just
// after it. Function literals have their own CFG and replay.
func (p *problem) checkNode(n ast.Node, live liveSet) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if ok && p.returnsError(call) && !p.excluded(call) {
			p.pass.Reportf(call.Pos(), "error result of %s is dropped; check it, return it, or //lint:ignore errflow", callName(call))
		}
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name == "_" && p.lhsIsError(n, l) {
				p.pass.Reportf(id.Pos(), "error discarded into _; check it, return it, or //lint:ignore errflow")
				continue
			}
			v := p.errVar(l)
			if v == nil || live[v] {
				continue
			}
			p.pass.Reportf(l.Pos(), "%s assigned here is dead: no path reads it before reassignment or return", v.Name())
		}
	}
}

// errVar resolves an expression to the *types.Var of a local error
// variable, or nil.
func (p *problem) errVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := p.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = p.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// lhsIsError reports whether the value flowing into this lhs position is
// a fresh error from a call (for blank-identifier discards, where the
// ident itself has no object). Only call results count: `_ = err` on an
// already-bound variable is a deliberate no-op, not a drop.
func (p *problem) lhsIsError(as *ast.AssignStmt, lhs ast.Expr) bool {
	idx := -1
	for i, l := range as.Lhs {
		if l == lhs {
			idx = i
		}
	}
	if idx < 0 {
		return false
	}
	if len(as.Rhs) == len(as.Lhs) {
		if _, ok := as.Rhs[idx].(*ast.CallExpr); !ok {
			return false
		}
		return isErrorType(p.pass.TypesInfo.Types[as.Rhs[idx]].Type)
	}
	tuple, ok := p.pass.TypesInfo.Types[as.Rhs[0]].Type.(*types.Tuple)
	if !ok || idx >= tuple.Len() {
		return false
	}
	return isErrorType(tuple.At(idx).Type())
}

// returnsError reports whether any result of the call is error-typed.
func (p *problem) returnsError(call *ast.CallExpr) bool {
	t := p.pass.TypesInfo.Types[call].Type
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errIface)
}

// excluded reports whether the dropped error is idiomatically ignorable:
// the fmt print family writing best-effort diagnostics.
func (p *problem) excluded(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "fmt" {
		return false
	}
	n := sel.Sel.Name
	return strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint")
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if base := astx.PathString(f.X); base != "" {
			return base + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}
