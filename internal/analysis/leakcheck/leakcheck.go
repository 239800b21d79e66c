// Package leakcheck finds resources that escape their acquiring function
// without being released, and process exits that skip a pending deferred
// cleanup.
//
// Two rules:
//
//  1. Must-release: a value obtained from a known acquirer (os.Create,
//     time.NewTicker, net.Listen, ... — or any in-repo function that
//     returns one of those fresh) must, on every control-flow path from
//     the acquisition to the function's exit, either be released
//     (Close/Stop, directly or deferred) or handed off — returned,
//     stored, sent, passed as an argument, or captured by a closure —
//     which transfers ownership to someone the intraprocedural analysis
//     cannot see. The check runs over the function's CFG
//     (internal/analysis/cfg), so a release on one branch does not excuse
//     the other, paths ending in panic/os.Exit are vacuously fine (the
//     process dies anyway — rule 2 owns that case), and the standard
//     `f, err := os.Open(p); if err != nil { return err }` shape is
//     understood: the error path holds no resource.
//
//  2. Exit-while-pending: deferred calls do not run across os.Exit. A
//     call whose effect summary (internal/analysis/summary) reaches
//     ProcExit — os.Exit or a fatal logger, any number of calls deep —
//     made after a cleanup has been deferred (`defer f.Close()`,
//     `defer profiling.Start(...)()`) silently discards that cleanup:
//     truncated CPU profiles, unflushed files. The call is flagged with
//     the call chain to the exit as evidence, unless the callee itself
//     reaches a release (Close/Stop/StopCPUProfile/...) before dying —
//     the early-exit helper that runs the cleanup by hand is the fix,
//     not a violation.
//
// Both rules approximate in the quiet direction: any hand-off counts as
// an ownership transfer (rule 1 never second-guesses the new owner), and
// a conditional defer is treated as always executed (the cfg package's
// convention). Suppress an acknowledged finding with
// //lint:ignore leakcheck <reason>.
package leakcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/callgraph"
	"burstmem/internal/analysis/cfg"
	"burstmem/internal/analysis/summary"
)

// Analyzer is the leakcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:       "leakcheck",
	Doc:        "acquired resources must be released or handed off on every path, and process exits must not skip pending deferred cleanups",
	RunProgram: run,
}

// acquirers maps external callee IDs to the method that releases their
// result.
var acquirers = map[callgraph.ID]string{
	"os.Create":      "Close",
	"os.Open":        "Close",
	"os.OpenFile":    "Close",
	"os.CreateTemp":  "Close",
	"net.Listen":     "Close",
	"net.Dial":       "Close",
	"time.NewTicker": "Stop",
	"time.NewTimer":  "Stop",
}

// releasers are the method names that count as running a cleanup, for the
// exit-while-pending exemption.
var releasers = map[string]bool{
	"Close": true, "Stop": true, "StopCPUProfile": true,
	"Sync": true, "Flush": true,
}

func run(pass *analysis.ProgramPass) {
	g := callgraph.Build(pass.Prog)
	set := summary.Of(pass.Prog)
	fresh := freshAcquirers(g)
	cleans := cleaners(g)
	for _, fn := range g.Source {
		checkFunc(pass, fn, set, fresh, cleans)
	}
}

// edgeIndex maps call positions to resolved callees. Lit edges are
// bookkeeping for uninvoked literals and share positions with real calls,
// so they are skipped.
func edgeIndex(fn *callgraph.Func) map[token.Pos][]*callgraph.Func {
	idx := map[token.Pos][]*callgraph.Func{}
	for _, e := range fn.Out {
		if e.Callee == nil || e.Kind == callgraph.Lit {
			continue
		}
		idx[e.Pos] = append(idx[e.Pos], e.Callee)
	}
	return idx
}

// acquiringCall resolves e to an acquiring call and returns the acquirer's
// display name and releaser method.
func acquiringCall(e ast.Expr, idx map[token.Pos][]*callgraph.Func, fresh map[callgraph.ID]string) (string, string, bool) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	for _, callee := range idx[call.Pos()] {
		if rel, ok := acquirers[callee.ID]; ok {
			return callee.Name, rel, true
		}
		if rel, ok := fresh[callee.ID]; ok {
			return callee.Name, rel, true
		}
	}
	return "", "", false
}

// freshAcquirers finds in-repo functions that return a freshly acquired
// resource (directly, or through a local, or via another fresh acquirer),
// mapped to the releaser method of the underlying acquisition. Callers of
// such a function inherit the release obligation.
func freshAcquirers(g *callgraph.Graph) map[callgraph.ID]string {
	fresh := map[callgraph.ID]string{}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Source {
			if _, ok := fresh[fn.ID]; ok {
				continue
			}
			body := fn.Body()
			if body == nil {
				continue
			}
			idx := edgeIndex(fn)
			info := fn.Pkg.TypesInfo
			acquired := map[types.Object]string{} // local -> releaser
			rel := ""
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Rhs) != 1 {
						return true
					}
					_, r, ok := acquiringCall(n.Rhs[0], idx, fresh)
					if !ok {
						return true
					}
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						if o := info.ObjectOf(id); o != nil {
							acquired[o] = r
						}
					}
				case *ast.ReturnStmt:
					for _, res := range n.Results {
						if _, r, ok := acquiringCall(res, idx, fresh); ok {
							rel = r
						}
						if id, ok := unparen(res).(*ast.Ident); ok {
							if r := acquired[info.ObjectOf(id)]; r != "" {
								rel = r
							}
						}
					}
				}
				return true
			})
			if rel != "" {
				fresh[fn.ID] = rel
				changed = true
			}
		}
	}
	return fresh
}

// cleaners computes the functions that (transitively) run a release —
// anything calling a method named Close/Stop/StopCPUProfile/Sync/Flush.
// A ProcExit callee in this set is an early-exit helper that finalizes by
// hand, not an exit-while-pending violation.
func cleaners(g *callgraph.Graph) map[callgraph.ID]bool {
	cleans := map[callgraph.ID]bool{}
	for _, fn := range g.Source {
		body := fn.Body()
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && releasers[sel.Sel.Name] {
					cleans[fn.ID] = true
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Source {
			if cleans[fn.ID] {
				continue
			}
			for _, e := range fn.Out {
				if e.Callee != nil && cleans[e.Callee.ID] {
					cleans[fn.ID] = true
					changed = true
					break
				}
			}
		}
	}
	return cleans
}

// acq is one resource acquisition in a function.
type acq struct {
	stmt ast.Node     // the acquiring assignment
	v    types.Object // the variable holding the resource
	errv types.Object // the error result, when assigned (nil otherwise)
	name string       // acquirer display name ("os.Create")
	rel  string       // releasing method ("Close")
}

// checker is the per-function analysis state.
type checker struct {
	pass *analysis.ProgramPass
	fn   *callgraph.Func
	info *types.Info
	g    *cfg.CFG
	acqs []acq
}

func checkFunc(pass *analysis.ProgramPass, fn *callgraph.Func, set *summary.Set, fresh map[callgraph.ID]string, cleans map[callgraph.ID]bool) {
	body := fn.Body()
	if body == nil {
		return
	}
	var node ast.Node
	if fn.Decl != nil {
		node = fn.Decl
	} else {
		node = fn.Lit
	}
	c := &checker{pass: pass, fn: fn, info: fn.Pkg.TypesInfo, g: cfg.New(node)}
	idx := edgeIndex(fn)

	// Rule 1: collect acquisitions, then ask the CFG whether a path
	// reaches Exit with the resource still pending.
	for _, b := range c.g.Blocks {
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			name, rel, ok := acquiringCall(as.Rhs[0], idx, fresh)
			if !ok {
				continue
			}
			id0, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id0.Name == "_" {
				continue
			}
			v := c.info.ObjectOf(id0)
			if v == nil {
				continue
			}
			var errv types.Object
			if len(as.Lhs) == 2 {
				if id1, ok := as.Lhs[1].(*ast.Ident); ok && id1.Name != "_" {
					errv = c.info.ObjectOf(id1)
				}
			}
			c.acqs = append(c.acqs, acq{stmt: n, v: v, errv: errv, name: name, rel: rel})
		}
	}
	if len(c.acqs) > 64 {
		c.acqs = c.acqs[:64] // dataflow facts are a bitmask
	}
	if len(c.acqs) > 0 {
		for _, i := range c.leaks() {
			a := c.acqs[i]
			pass.Reportf(a.stmt.Pos(),
				"%s acquired here is not released on every path: defer %s.%s() (or hand the value off) before returning",
				a.name, a.v.Name(), a.rel)
		}
	}

	// Rule 2: calls that can exit the process after a cleanup was
	// deferred. Lexical order approximates control flow: a call before
	// the defer statement cannot discard it.
	fins := deferredCleanups(body, fn.Lit)
	if len(fins) == 0 {
		return
	}
	first := fins[0]
	for _, e := range fn.Out {
		if e.Callee == nil || e.Kind == callgraph.Lit || e.Pos <= first.pos {
			continue
		}
		id := e.Callee.ID
		if !exits(set, id) || cleans[id] {
			continue
		}
		chain := []string{e.Callee.Name}
		chain = append(chain, set.Path(id, summary.ProcExit)...)
		pass.ReportChainf(e.Pos, chain,
			"call to %s can exit the process while the cleanup deferred at line %d (%s) is pending: deferred calls do not run across os.Exit; run the cleanup before exiting",
			e.Callee.Name, pass.Prog.Fset.Position(first.pos).Line, first.desc)
	}
}

// fin is one deferred cleanup.
type fin struct {
	pos  token.Pos
	desc string
}

// deferredCleanups collects the deferred release calls of one function
// body: `defer x.Close()` / `defer x.Stop()`, and the
// `defer acquire(...)()` shape whose inner call returned the finalizer.
// Nested literals keep their own defers.
func deferredCleanups(body ast.Node, self *ast.FuncLit) []fin {
	var fins []fin
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != self {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		switch f := d.Call.Fun.(type) {
		case *ast.SelectorExpr:
			if releasers[f.Sel.Name] {
				fins = append(fins, fin{pos: d.Pos(), desc: exprName(f) + "()"})
			}
		case *ast.CallExpr:
			fins = append(fins, fin{pos: d.Pos(), desc: exprName(f.Fun) + "(…)()"})
		}
		return true
	})
	return fins
}

// exits reports whether calling id can terminate the process: os.Exit and
// the fatal loggers directly, or any function whose summary reaches
// ProcExit.
func exits(set *summary.Set, id callgraph.ID) bool {
	switch id {
	case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
		return true
	}
	sum := set.Funcs[id]
	if sum == nil {
		return false
	}
	_, ok := sum.Effects[summary.ProcExit]
	return ok
}

// leaks runs the forward may-leak dataflow and returns the indices of
// acquisitions still pending at Exit.
func (c *checker) leaks() []int {
	blocks := c.g.Blocks
	out := make([]uint64, len(blocks))
	rpo := c.g.RPO()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			var in uint64
			for _, p := range b.Preds {
				in |= out[p.Index] &^ c.edgeKills(p, b)
			}
			o := c.transfer(b, in)
			if o != out[b.Index] {
				out[b.Index] = o
				changed = true
			}
		}
	}
	var in uint64
	for _, p := range c.g.Exit.Preds {
		in |= out[p.Index] &^ c.edgeKills(p, c.g.Exit)
	}
	var idxs []int
	for i := range c.acqs {
		if in&(1<<uint(i)) != 0 {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// transfer scans a block's nodes in order, setting an acquisition's bit at
// its statement and clearing it at a release or hand-off.
func (c *checker) transfer(b *cfg.Block, in uint64) uint64 {
	f := in
	for _, n := range b.Nodes {
		for i := range c.acqs {
			a := &c.acqs[i]
			if n == a.stmt {
				f |= 1 << uint(i)
				continue
			}
			if f&(1<<uint(i)) == 0 {
				continue
			}
			if c.releases(n, a) || c.hands(n, a) {
				f &^= 1 << uint(i)
			}
		}
	}
	return f
}

// edgeKills returns the acquisition bits killed on the p->b edge: the
// branch where the acquisition's error is non-nil (it failed — there is
// nothing to release) or the resource itself is nil.
func (c *checker) edgeKills(p, b *cfg.Block) uint64 {
	if p.Kind != cfg.KindCond || p.Cond == nil {
		return 0
	}
	be, ok := p.Cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return 0
	}
	var x ast.Expr
	switch {
	case isNil(be.Y):
		x = be.X
	case isNil(be.X):
		x = be.Y
	default:
		return 0
	}
	id, ok := unparen(x).(*ast.Ident)
	if !ok {
		return 0
	}
	o := c.info.ObjectOf(id)
	if o == nil {
		return 0
	}
	// Succs[0] is the true edge. Same-target edges stay conservative.
	onTrue := b == p.Succs[0]
	var kills uint64
	for i := range c.acqs {
		a := &c.acqs[i]
		dead := false
		switch {
		case a.errv != nil && o == a.errv:
			dead = (be.Op == token.NEQ) == onTrue // err != nil: failed
		case o == a.v:
			dead = (be.Op == token.EQL) == onTrue // v == nil: nothing held
		}
		if dead {
			kills |= 1 << uint(i)
		}
	}
	return kills
}

// releases reports whether n runs the acquisition's releaser on its
// variable, directly or deferred. (A `defer v.Close()` counts at the
// defer statement: the cfg defer chain guarantees it runs on every
// orderly exit.)
func (c *checker) releases(n ast.Node, a *acq) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != a.rel {
			return !found
		}
		if id, ok := unparen(sel.X).(*ast.Ident); ok && c.info.ObjectOf(id) == a.v {
			found = true
		}
		return !found
	})
	return found
}

// hands reports whether n transfers ownership of the resource: returned,
// assigned away (or over), passed as a call argument, sent, aggregated,
// address-taken, or captured by a function literal.
func (c *checker) hands(n ast.Node, a *acq) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, e := range append(append([]ast.Expr{}, m.Lhs...), m.Rhs...) {
				if c.mentions(e, a.v) {
					found = true
				}
			}
		case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit:
			if c.mentions(m, a.v) {
				found = true
			}
			return false
		case *ast.CallExpr:
			for _, arg := range m.Args {
				if c.mentions(arg, a.v) {
					found = true
				}
			}
			if lit, ok := m.Fun.(*ast.FuncLit); ok && c.mentions(lit, a.v) {
				found = true
			}
			// A method call on the resource itself (v.Read(...)) is a
			// neutral receiver use, not a transfer.
		case *ast.UnaryExpr:
			if m.Op == token.AND && c.mentions(m.X, a.v) {
				found = true
			}
		case *ast.FuncLit:
			if c.mentions(m, a.v) {
				found = true
			}
			return false
		}
		return !found
	})
	return found
}

// mentions reports whether the subtree uses the variable.
func (c *checker) mentions(n ast.Node, v types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && c.info.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}

// exprName renders a selector/ident chain for messages ("profiling.Start",
// "f.Close"); anything more exotic collapses to "…".
func exprName(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	}
	return "…"
}

func isNil(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
