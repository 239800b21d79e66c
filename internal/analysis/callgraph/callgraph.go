// Package callgraph builds a CHA-style call graph over a loaded program
// (internal/analysis.Program): one node per function body — declarations
// and function literals — plus leaf nodes for external callees, with edges
// for static calls, interface dispatch, go-spawns and unresolved dynamic
// calls.
//
// Resolution rules:
//
//   - Direct calls (pkg.F(), method calls on concrete receivers, calls of
//     a function literal written at the call site) produce one Static edge.
//   - Interface method calls dispatch by class hierarchy analysis: the
//     callee set is every named type declared in the loaded program whose
//     method set contains a method with the called name and a matching
//     signature, and whose method set covers the whole interface. This
//     over-approximates (any implementor anywhere counts, whether or not a
//     value of that type can flow to the call site), which is the safe
//     direction for the determinism and leak checks built on top.
//   - Generic calls resolve to the generic declaration (types.Func.Origin);
//     one summary of the generic body stands for every instantiation, and
//     the loader's Instances map is consulted so an instantiated identifier
//     still reaches its origin. Method calls on a type-parameter receiver
//     are unresolved (no concrete callee exists until instantiation) and
//     become Dynamic edges.
//   - Calls through function values (variables, fields, parameters) cannot
//     be resolved by CHA and produce a calleeless Dynamic edge, which
//     effect summaries skip.
//   - A function literal that is not called where it is written gets a Lit
//     edge from its enclosing function: defining a closure is conservatively
//     treated as running it, so its effects surface in the encloser's
//     summary even when the actual invocation happens through a func value
//     the graph cannot track.
//
// Cross-package identity: every package is type-checked separately against
// compiler export data, so a *types.Func for dram.(*Channel).Tick seen from
// memctrl is a different object than the one in dram's own source-checked
// universe. The graph therefore keys functions by a stable string ID —
// `pkgpath.Func`, `pkgpath.(*Recv).Method`, literals as `parentID$n` — and
// interface satisfaction uses a structural comparator that treats named
// types as equal when their (package path, name) match (see match.go).
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/astx"
)

// ID is the stable, universe-independent identity of a function.
type ID string

// EdgeKind classifies how a call site reaches its callee.
type EdgeKind uint8

// Edge kinds.
const (
	// Static is a direct call with one known callee.
	Static EdgeKind = iota
	// Interface is one CHA-resolved candidate of an interface method call.
	Interface
	// Spawn is a `go` statement's call (static or CHA-resolved).
	Spawn
	// Lit marks the conservative encloser -> literal edge for closures not
	// called where they are written.
	Lit
	// Dynamic is a call through a function value; Callee is nil.
	Dynamic
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case Spawn:
		return "spawn"
	case Lit:
		return "lit"
	case Dynamic:
		return "dynamic"
	}
	return "?"
}

// Edge is one caller -> callee link.
type Edge struct {
	Kind EdgeKind
	// Callee is nil exactly when Kind is Dynamic.
	Callee *Func
	// Pos is the call (or go statement) position in the caller.
	Pos token.Pos
}

// Func is one node: a function with a body in the loaded program, or an
// external callee (export-data only — stdlib and friends), which has no
// body, no package and no outgoing edges.
type Func struct {
	ID   ID
	Name string // short form for messages: "dram.(*Channel).Tick"

	// Pkg/Decl/Lit locate the body; all nil for external functions.
	Pkg    *analysis.Package
	Decl   *ast.FuncDecl
	Lit    *ast.FuncLit
	Parent *Func // enclosing function, for literals

	// Hotpath records the //burstmem:hotpath directive on the declaration
	// (literals inherit it from their encloser: a closure written on the
	// hot path runs on the hot path).
	Hotpath bool

	Out []Edge
}

// Body returns the function body, nil for externals.
func (f *Func) Body() *ast.BlockStmt {
	switch {
	case f.Decl != nil:
		return f.Decl.Body
	case f.Lit != nil:
		return f.Lit.Body
	}
	return nil
}

// Pos returns the declaration position (NoPos for externals).
func (f *Func) Pos() token.Pos {
	switch {
	case f.Decl != nil:
		return f.Decl.Pos()
	case f.Lit != nil:
		return f.Lit.Pos()
	}
	return token.NoPos
}

// Graph is the call graph of one program.
type Graph struct {
	// Funcs indexes every node, including externals.
	Funcs map[ID]*Func
	// Source lists the nodes with bodies in deterministic order (package
	// load order, then file position) — the iteration order every
	// downstream consumer uses, so diagnostics never depend on map order.
	Source []*Func

	types *typeIndex
}

// Build constructs the call graph; cached per program under "callgraph".
func Build(prog *analysis.Program) *Graph {
	return prog.Cached("callgraph", func() any {
		return build(prog)
	}).(*Graph)
}

func build(prog *analysis.Program) *Graph {
	g := &Graph{Funcs: map[ID]*Func{}}
	g.types = newTypeIndex(prog)
	g.types.graph = g

	// Pass 1: create nodes for every declared function and every literal,
	// so call resolution always finds its target node.
	type fnScope struct {
		fn  *Func
		pkg *analysis.Package
	}
	var scopes []fnScope
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fn := &Func{
					ID:      FuncID(obj),
					Name:    shortName(obj),
					Pkg:     pkg,
					Decl:    decl,
					Hotpath: astx.IsHotpath(decl),
				}
				g.Funcs[fn.ID] = fn
				g.Source = append(g.Source, fn)
				scopes = append(scopes, fnScope{fn, pkg})
				// Literals nested in this declaration, in lexical order;
				// each literal's Parent is its nearest enclosing function
				// (the declaration, or an outer literal).
				n := 0
				var lits []*Func
				ast.Inspect(decl.Body, func(node ast.Node) bool {
					lit, ok := node.(*ast.FuncLit)
					if !ok {
						return true
					}
					n++
					parent := fn
					for i := len(lits) - 1; i >= 0; i-- {
						if lits[i].Lit.Pos() <= lit.Pos() && lit.End() <= lits[i].Lit.End() {
							parent = lits[i]
							break
						}
					}
					lf := &Func{
						ID:      ID(fmt.Sprintf("%s$%d", fn.ID, n)),
						Name:    fmt.Sprintf("%s$%d", fn.Name, n),
						Pkg:     pkg,
						Lit:     lit,
						Parent:  parent,
						Hotpath: fn.Hotpath,
					}
					lits = append(lits, lf)
					g.Funcs[lf.ID] = lf
					g.Source = append(g.Source, lf)
					scopes = append(scopes, fnScope{lf, pkg})
					return true
				})
			}
		}
	}

	// Pass 2: resolve calls.
	for _, s := range scopes {
		g.resolveCalls(s.fn, s.pkg)
	}
	return g
}

// external interns a bodyless node for a callee only known from export
// data.
func (g *Graph) external(obj *types.Func) *Func {
	id := FuncID(obj)
	if f := g.Funcs[id]; f != nil {
		return f
	}
	f := &Func{ID: id, Name: shortName(obj)}
	g.Funcs[id] = f
	return f
}

// FuncID derives the stable ID of a function object, normalizing generic
// instantiations to their origin declaration.
func FuncID(obj *types.Func) ID {
	obj = obj.Origin()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if recv := recvString(obj); recv != "" {
		return ID(pkg + ".(" + recv + ")." + obj.Name())
	}
	return ID(pkg + "." + obj.Name())
}

// shortName renders the message-friendly form: last package path element
// plus receiver and name.
func shortName(obj *types.Func) string {
	obj = obj.Origin()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[i+1:]
		}
	}
	if recv := recvString(obj); recv != "" {
		return pkg + ".(" + recv + ")." + obj.Name()
	}
	if pkg == "" {
		return obj.Name()
	}
	return pkg + "." + obj.Name()
}

// recvString renders a method's receiver as "*T" or "T" (type parameters
// of generic receivers are dropped), or "" for plain functions.
func recvString(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		ptr = "*"
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return ptr + t.Obj().Name()
	case *types.TypeParam:
		// Interface-constraint method on a type parameter: no stable
		// receiver type exists. Callers treat these as unresolvable.
		return ptr + "<typeparam>"
	}
	return ptr + t.String()
}

// resolveCalls walks one function's own statements (literal bodies are
// their own nodes) and appends edges.
func (g *Graph) resolveCalls(fn *Func, pkg *analysis.Package) {
	body := fn.Body()
	if body == nil {
		return
	}
	// calledLits marks literals invoked or spawned exactly where they are
	// written; every other literal gets the conservative Lit edge.
	calledLits := map[*ast.FuncLit]bool{}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !calledLits[n] {
				if lf := g.litNode(fn, n); lf != nil {
					fn.Out = append(fn.Out, Edge{Kind: Lit, Callee: lf, Pos: n.Pos()})
				}
			}
			return false
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				calledLits[lit] = true
				if lf := g.litNode(fn, lit); lf != nil {
					fn.Out = append(fn.Out, Edge{Kind: Spawn, Callee: lf, Pos: n.Pos()})
				}
				// Arguments and the literal body still walk normally.
				for _, a := range n.Call.Args {
					ast.Inspect(a, walk)
				}
				ast.Inspect(lit.Body, walk)
				return false
			}
			g.callEdges(fn, pkg, n.Call, Spawn)
			// Walk the call's subexpressions directly: descending into the
			// CallExpr itself would resolve it a second time as Static.
			ast.Inspect(n.Call.Fun, walk)
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.CallExpr:
			if lit, ok := unparen(n.Fun).(*ast.FuncLit); ok {
				calledLits[lit] = true
				if lf := g.litNode(fn, lit); lf != nil {
					fn.Out = append(fn.Out, Edge{Kind: Static, Callee: lf, Pos: n.Pos()})
				}
				return true
			}
			g.callEdges(fn, pkg, n, Static)
			return true
		}
		return true
	}
	if fn.Lit != nil {
		ast.Inspect(fn.Lit.Body, walk)
	} else {
		ast.Inspect(fn.Decl.Body, walk)
	}
}

// litNode finds the node of a literal lexically inside fn (fn's direct
// literals only — nested ones belong to their own encloser).
func (g *Graph) litNode(fn *Func, lit *ast.FuncLit) *Func {
	for _, f := range g.Source {
		if f.Lit == lit && f.Parent == fn {
			return f
		}
	}
	// lit is nested inside another literal; its encloser owns it.
	for _, f := range g.Source {
		if f.Lit == lit {
			return f
		}
	}
	return nil
}

// callEdges resolves one call expression into edges on fn. kind is Static
// for ordinary calls and Spawn for `go` statements.
func (g *Graph) callEdges(fn *Func, pkg *analysis.Package, call *ast.CallExpr, kind EdgeKind) {
	fun := unparen(call.Fun)
	// Unwrap explicit instantiation: F[int](...) / m[K, V](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(pkg, ix.X) {
			fun = unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = unparen(ix.X)
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.TypesInfo.Uses[fun].(type) {
		case *types.Func:
			fn.Out = append(fn.Out, Edge{Kind: kind, Callee: g.declared(obj), Pos: call.Pos()})
		case *types.Builtin:
			// no edge
		case *types.TypeName:
			// conversion, no edge
		case *types.Var:
			fn.Out = append(fn.Out, Edge{Kind: Dynamic, Pos: call.Pos()})
		default:
			if _, isType := pkg.TypesInfo.Types[fun]; isType && pkg.TypesInfo.Types[fun].IsType() {
				return
			}
			fn.Out = append(fn.Out, Edge{Kind: Dynamic, Pos: call.Pos()})
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				g.methodEdges(fn, pkg, fun, sel, call.Pos(), kind)
			case types.FieldVal:
				fn.Out = append(fn.Out, Edge{Kind: Dynamic, Pos: call.Pos()})
			}
			return
		}
		// Qualified identifier pkg.F or conversion pkg.T(x).
		switch obj := pkg.TypesInfo.Uses[fun.Sel].(type) {
		case *types.Func:
			fn.Out = append(fn.Out, Edge{Kind: kind, Callee: g.declared(obj), Pos: call.Pos()})
		case *types.TypeName:
			// conversion
		case *types.Var:
			fn.Out = append(fn.Out, Edge{Kind: Dynamic, Pos: call.Pos()})
		}
	default:
		// Call of an arbitrary expression's result, conversions to func
		// types, etc.
		if tv, ok := pkg.TypesInfo.Types[fun]; ok && tv.IsType() {
			return
		}
		fn.Out = append(fn.Out, Edge{Kind: Dynamic, Pos: call.Pos()})
	}
}

// methodEdges resolves a method call: static for concrete receivers, CHA
// for interface receivers, Dynamic for type-parameter receivers.
func (g *Graph) methodEdges(fn *Func, pkg *analysis.Package, sel *ast.SelectorExpr, selection *types.Selection, pos token.Pos, kind EdgeKind) {
	obj, ok := selection.Obj().(*types.Func)
	if !ok {
		fn.Out = append(fn.Out, Edge{Kind: Dynamic, Pos: pos})
		return
	}
	recv := selection.Recv()
	if _, isParam := recv.(*types.TypeParam); isParam {
		fn.Out = append(fn.Out, Edge{Kind: Dynamic, Pos: pos})
		return
	}
	if types.IsInterface(recv) {
		iface, _ := recv.Underlying().(*types.Interface)
		if iface == nil {
			fn.Out = append(fn.Out, Edge{Kind: Dynamic, Pos: pos})
			return
		}
		ekind := Interface
		if kind == Spawn {
			ekind = Spawn
		}
		for _, impl := range g.types.implementations(iface, obj.Name()) {
			fn.Out = append(fn.Out, Edge{Kind: ekind, Callee: impl, Pos: pos})
		}
		return
	}
	fn.Out = append(fn.Out, Edge{Kind: kind, Callee: g.declared(obj), Pos: pos})
}

// declared maps a callee object to its node: the source node when the
// function is declared in a loaded package, an interned external node
// otherwise. Objects from a dependency's export data carry the same ID as
// the source-checked declaration, so the lookup unifies the universes.
func (g *Graph) declared(obj *types.Func) *Func {
	id := FuncID(obj)
	if f := g.Funcs[id]; f != nil {
		return f
	}
	return g.external(obj)
}

// Callees returns the distinct callee IDs of fn's resolved edges, sorted —
// a test and debugging convenience.
func (g *Graph) Callees(id ID) []ID {
	fn := g.Funcs[id]
	if fn == nil {
		return nil
	}
	seen := map[ID]bool{}
	var out []ID
	for _, e := range fn.Out {
		if e.Callee != nil && !seen[e.Callee.ID] {
			seen[e.Callee.ID] = true
			out = append(out, e.Callee.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SCCs returns the strongly connected components of the source nodes in
// bottom-up order: every component is listed after all components it
// calls into (externals excluded — they have no edges and no effects of
// their own). Tarjan's algorithm, iterative over an explicit stack so deep
// call chains cannot overflow the goroutine stack.
func (g *Graph) SCCs() [][]*Func {
	index := map[*Func]int{}
	low := map[*Func]int{}
	onStack := map[*Func]bool{}
	var stack []*Func
	var out [][]*Func
	next := 0

	type frame struct {
		fn   *Func
		edge int
	}
	for _, root := range g.Source {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{fn: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.edge < len(f.fn.Out) {
				e := f.fn.Out[f.edge]
				f.edge++
				w := e.Callee
				if w == nil || w.Body() == nil {
					continue
				}
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{fn: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.fn] {
					low[f.fn] = index[w]
				}
			}
			if advanced {
				continue
			}
			// f.fn finished.
			if low[f.fn] == index[f.fn] {
				var comp []*Func
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.fn {
						break
					}
				}
				out = append(out, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].fn
				if low[f.fn] < low[parent] {
					low[parent] = low[f.fn]
				}
			}
		}
	}
	return out
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isFuncExpr reports whether the expression denotes a function (so an
// IndexExpr around it is a generic instantiation, not slice indexing).
func isFuncExpr(pkg *analysis.Package, e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		_, ok := pkg.TypesInfo.Uses[e].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := pkg.TypesInfo.Uses[e.Sel].(*types.Func)
		return ok
	}
	return false
}
