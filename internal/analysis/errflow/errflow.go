// Package errflow checks that error values in the simulation and command
// packages flow into a check before dying. Burst-scheduling experiments
// are only as trustworthy as their I/O: a sweep that silently fails to
// flush its CSV output or a trace parser that drops a close error
// produces plausible-looking garbage, so in internal/sim,
// internal/workload and cmd/* every error must reach a use — a
// comparison, a return, an argument — on some path, or carry an explicit
// `//lint:ignore errflow <reason>`.
//
// Three failure shapes are reported:
//
//   - a call with an error result used as a bare statement
//     (`f.Close()`): the error is dropped at birth. Writing `_ = f.Close()`
//     is the same drop with makeup on and is flagged identically;
//   - an error stored in a local variable that is dead there: no path
//     from the store reads the variable before overwriting it or leaving
//     its block. Go's statements are structured, so the rule needs no
//     control-flow graph: it folds the statements that follow the store.
//     `err := f(); if c { return }; check(err)` is fine (one path reads
//     it) while `err := f(); err = g(...)` flags the first store;
//   - an error check that handles nothing: an if whose condition compares
//     an error with nil and whose body is empty, `if err != nil {}`, or
//     `if err == nil {}` without an else. The comparison reads the error,
//     so the dead-store rule passes it, but the error goes nowhere.
//
// Never reported: deferred and go'd calls (`defer f.Close()` on read-only
// files is idiomatic); the fmt.Print/Fprint family (best-effort
// diagnostics to stderr); named error results, which the caller reads;
// variables that a function literal mentions or whose address is taken,
// which other code may read; and stores in an if, switch or for init,
// whose condition follows.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/astx"
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
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					deadStores(pass, n, n.Type, n.Body)
				}
			case *ast.FuncLit:
				deadStores(pass, n, n.Type, n.Body)
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if ok && returnsError(pass.TypesInfo, call) && !excluded(call) {
					pass.Reportf(call.Pos(), "error result of %s is dropped; check it, return it, or //lint:ignore errflow", callName(call))
				}
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name == "_" && discardsError(pass.TypesInfo, n, i) {
						pass.Reportf(id.Pos(), "error discarded into _; check it, return it, or //lint:ignore errflow")
					}
				}
			case *ast.IfStmt:
				if emptyCheck(pass.TypesInfo, n) {
					pass.Reportf(n.Pos(), "error check has an empty body; handle the error, or //lint:ignore errflow")
				}
			}
			return true
		})
	}
}

// emptyCheck reports whether the if compares an error with nil and does
// nothing about it: an empty body under `!=`, or, under `==`, an empty body
// with no else to handle the error.
func emptyCheck(info *types.Info, s *ast.IfStmt) bool {
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || len(s.Body.List) != 0 || !(cond.Op == token.NEQ || cond.Op == token.EQL && s.Else == nil) {
		return false
	}
	x, y := cond.X, cond.Y
	if info.Types[x].IsNil() {
		x, y = y, x
	}
	return info.Types[y].IsNil() && isErrorType(info.Types[x].Type)
}

// flow is what the statements after a store do with the stored value,
// ordered so that max joins two alternative paths: one read keeps the
// value live, and it is dead only when both paths kill it.
type flow uint8

const (
	dead    flow = iota // every path overwrites the value or returns first
	through             // some path leaves the statements, value untouched
	read                // some path may read the value
)

// frame is one statement list on the way from a function body down to
// the statement being visited.
type frame struct {
	list  []ast.Stmt
	i     int      // index of the statement being visited
	block ast.Node // the block or case clause that holds the list
	loop  bool     // the list is a loop body
}

// fn walks one function body, a declaration's or a literal's; nested
// literals are walked on their own.
type fn struct {
	pass  *analysis.Pass
	node  ast.Node            // the *ast.FuncDecl or *ast.FuncLit
	skip  map[*types.Var]bool // variables never reported
	stack []frame
}

// deadStores reports the error stores in one function that no path reads.
func deadStores(pass *analysis.Pass, node ast.Node, ft *ast.FuncType, body *ast.BlockStmt) {
	f := &fn{pass: pass, node: node, skip: map[*types.Var]bool{}}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					f.skip[v] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					f.shared(id)
				}
				return true
			})
			return false
		case *ast.UnaryExpr:
			if id, ok := n.X.(*ast.Ident); ok && n.Op == token.AND {
				f.shared(id)
			}
		}
		return true
	})
	f.list(body.List, body, false)
}

// shared marks the variable id refers to as readable by other code.
func (f *fn) shared(id *ast.Ident) {
	if v, ok := f.pass.TypesInfo.Uses[id].(*types.Var); ok {
		f.skip[v] = true
	}
}

// list visits the statements of one list, with a frame pushed for it.
func (f *fn) list(list []ast.Stmt, block ast.Node, loop bool) {
	f.stack = append(f.stack, frame{list: list, block: block, loop: loop})
	top := len(f.stack) - 1
	for i, s := range list {
		f.stack[top].i = i
		f.stmt(s)
	}
	f.stack = f.stack[:top]
}

// stmt checks the stores of one listed statement and descends into the
// lists nested in it. The init and post statements of if, switch and for
// are not visited: their condition follows them.
func (f *fn) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			// A variable declared outside this function is shared with
			// its enclosing one, or package-level.
			v := f.errVar(l)
			if v == nil || f.skip[v] || v.Pos() < f.node.Pos() || v.Pos() >= f.node.End() {
				continue
			}
			if f.after(v) == dead {
				f.pass.Reportf(l.Pos(), "%s assigned here is dead: no path reads it before reassignment or return", v.Name())
			}
		}
	case *ast.BlockStmt:
		f.list(s.List, s, false)
	case *ast.LabeledStmt:
		f.stmt(s.Stmt)
	case *ast.IfStmt:
		f.list(s.Body.List, s.Body, false)
		if s.Else != nil {
			f.stmt(s.Else)
		}
	case *ast.ForStmt:
		f.list(s.Body.List, s.Body, true)
	case *ast.RangeStmt:
		f.list(s.Body.List, s.Body, true)
	case *ast.SwitchStmt:
		f.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		f.clauses(s.Body)
	case *ast.SelectStmt:
		f.clauses(s.Body)
	}
}

// clauses visits the clause bodies of a switch or select.
func (f *fn) clauses(body *ast.BlockStmt) {
	for _, s := range body.List {
		switch cc := s.(type) {
		case *ast.CaseClause:
			f.list(cc.Body, cc, false)
		case *ast.CommClause:
			f.list(cc.Body, cc, false)
		}
	}
}

// after answers for a store to v in the statement being visited: it
// folds the rest of each enclosing list, innermost first, until a
// statement decides. The value dies at the end of v's own block and at
// the end of the function; the end of a loop body counts as a read,
// because the next iteration may read it.
func (f *fn) after(v *types.Var) flow {
	for k := len(f.stack) - 1; k >= 0; k-- {
		fr := f.stack[k]
		if fl := f.fold(fr.list[fr.i+1:], v); fl != through {
			return fl
		}
		if fr.block.Pos() <= v.Pos() && v.Pos() < fr.block.End() {
			return dead
		}
		if fr.loop {
			return read
		}
	}
	return dead
}

// fold answers for a statement list: the first statement that does not
// let the value through decides.
func (f *fn) fold(list []ast.Stmt, v *types.Var) flow {
	for _, s := range list {
		if fl := f.flowOf(s, v); fl != through {
			return fl
		}
	}
	return through
}

// flowOf answers for one statement. An if without an else, or a switch
// without a default, lets the value through. Branch statements count as
// reads, and so do loops, selects and any other statement that mentions v.
func (f *fn) flowOf(s ast.Stmt, v *types.Var) flow {
	switch s := s.(type) {
	case *ast.AssignStmt:
		// The right-hand side is evaluated before the store.
		fl := through
		for _, l := range s.Lhs {
			if f.errVar(l) == v {
				fl = dead
			} else if f.mentions(l, v) {
				return read
			}
		}
		for _, r := range s.Rhs {
			if f.mentions(r, v) {
				return read
			}
		}
		return fl
	case *ast.ReturnStmt:
		if f.mentions(s, v) {
			return read
		}
		return dead
	case *ast.BranchStmt:
		return read
	case *ast.BlockStmt:
		return f.fold(s.List, v)
	case *ast.IfStmt:
		if fl := f.head(s.Init, s.Cond, v); fl != through {
			return fl
		}
		els := through
		if s.Else != nil {
			els = f.flowOf(s.Else, v)
		}
		return max(f.fold(s.Body.List, v), els)
	case *ast.SwitchStmt:
		return f.cases(s.Init, s.Tag, s.Body, v)
	case *ast.TypeSwitchStmt:
		return f.cases(s.Init, s.Assign, s.Body, v)
	}
	if f.mentions(s, v) {
		return read
	}
	return through
}

// head answers for the init statement and condition (or tag) that head an
// if or switch; either may be nil.
func (f *fn) head(init ast.Stmt, cond ast.Node, v *types.Var) flow {
	if init != nil {
		if fl := f.flowOf(init, v); fl != through {
			return fl
		}
	}
	if cond != nil && f.mentions(cond, v) {
		return read
	}
	return through
}

// cases answers for a switch: its head, then its clauses joined; without
// a default, the value can also pass the switch untouched.
func (f *fn) cases(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, v *types.Var) flow {
	if fl := f.head(init, tag, v); fl != through {
		return fl
	}
	out, hasDefault := dead, false
	for _, s := range body.List {
		cc := s.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			if f.mentions(e, v) {
				return read
			}
		}
		out = max(out, f.fold(cc.Body, v))
	}
	if !hasDefault {
		out = max(out, through)
	}
	return out
}

// mentions reports whether n uses v, or holds a labelled branch or goto
// that may leave the statements around it.
func (f *fn) mentions(n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.Ident:
			found = found || f.pass.TypesInfo.Uses[x] == v
		case *ast.BranchStmt:
			found = found || x.Label != nil
		}
		return !found
	})
	return found
}

// errVar resolves an expression to the *types.Var of an error variable,
// or nil.
func (f *fn) errVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := f.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = f.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// discardsError reports whether the value flowing into the i'th lhs of
// the assignment is a fresh error from a call (for blank-identifier
// discards, where the ident itself has no object). Only call results
// count: `_ = err` on an already-bound variable is a deliberate no-op, not
// a drop.
func discardsError(info *types.Info, as *ast.AssignStmt, i int) bool {
	if len(as.Rhs) == len(as.Lhs) {
		_, call := as.Rhs[i].(*ast.CallExpr)
		return call && isErrorType(info.Types[as.Rhs[i]].Type)
	}
	tuple, ok := info.Types[as.Rhs[0]].Type.(*types.Tuple)
	return ok && i < tuple.Len() && isErrorType(tuple.At(i).Type())
}

// returnsError reports whether any result of the call is error-typed.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.Types[call].Type
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
func excluded(call *ast.CallExpr) bool {
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
