package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"burstmem/internal/analysis/cfg"
)

func buildCFG(t *testing.T, src, fn string) *cfg.CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return cfg.New(fd)
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil
}

// blockCalling finds the block containing a call of the named function.
func blockCalling(t *testing.T, g *cfg.CFG, name string) *cfg.Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if c, ok := x.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return true
			})
			if found {
				return b
			}
		}
	}
	t.Fatalf("no block calls %s:\n%s", name, g)
	return nil
}

// --- fixture 1: may/must call-reachability ------------------------------

// callFact is a set of called function names. For the must-variant, the
// nil map is the lattice identity ("universe": every call assumed, as on an
// unreached path).
type callFact map[string]bool

type callProblem struct {
	must bool // join by intersection instead of union
}

func (callProblem) Direction() Direction { return Forward }
func (callProblem) Boundary() callFact   { return callFact{} }
func (p callProblem) Bottom() callFact {
	if p.must {
		return nil // universe: identity of intersection
	}
	return callFact{}
}

func (p callProblem) Join(a, b callFact) callFact {
	if p.must {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		out := callFact{}
		for k := range a {
			if b[k] {
				out[k] = true
			}
		}
		return out
	}
	out := callFact{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func (callProblem) Equal(a, b callFact) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (callProblem) Transfer(b *cfg.Block, in callFact) callFact {
	if in == nil {
		return nil // unreachable stays unreachable
	}
	out := callFact{}
	for k := range in {
		out[k] = true
	}
	for _, n := range b.Nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			if c, ok := x.(*ast.CallExpr); ok {
				out[types.ExprString(c.Fun)] = true
			}
			return true
		})
	}
	return out
}

// TestSolverDeferEdges checks that facts from every return flow through
// the deferred-call chain into Exit: must-analysis sees the deferred call
// on all paths.
func TestSolverDeferEdges(t *testing.T) {
	g := buildCFG(t, `
func f(c bool) {
	lock()
	defer unlock()
	if c {
		return
	}
	work()
}`, "f")
	res := Solve[callFact](g, callProblem{must: true})
	exit := res.In[g.Exit]
	if !exit["lock"] || !exit["unlock"] {
		t.Errorf("exit must-calls = %v, want lock and unlock on every path", exit)
	}
	if exit["work"] {
		t.Errorf("work() is on the early-return path yet appears in the must set")
	}
}

// TestSolverSelectJoin checks the join over select-clause successors: only
// calls common to every clause survive a must-join.
func TestSolverSelectJoin(t *testing.T) {
	g := buildCFG(t, `
func f(a, b chan int) {
	select {
	case <-a:
		both()
		onlyA()
	case <-b:
		both()
	}
	done()
}`, "f")
	res := Solve[callFact](g, callProblem{must: true})
	at := res.In[blockCalling(t, g, "done")]
	if !at["both"] {
		t.Errorf("call on every select clause missing from must set: %v", at)
	}
	if at["onlyA"] {
		t.Errorf("single-clause call survived the must join: %v", at)
	}
}

// TestSolverRangeFixpoint checks convergence over the range back edge and
// that may-facts generated in the loop body reach the loop exit.
func TestSolverRangeFixpoint(t *testing.T) {
	g := buildCFG(t, `
func f(xs []int) {
	pre()
	for range xs {
		inLoop()
	}
	post()
}`, "f")
	res := Solve[callFact](g, callProblem{must: false})
	at := res.In[blockCalling(t, g, "post")]
	if !at["pre"] || !at["inLoop"] {
		t.Errorf("may-set after range loop = %v, want pre and inLoop", at)
	}
	// Must-variant: the zero-iteration path skips the body.
	resM := Solve[callFact](g, callProblem{must: true})
	atM := resM.In[blockCalling(t, g, "post")]
	if atM["inLoop"] {
		t.Errorf("loop body call in must-set despite zero-iteration path: %v", atM)
	}
	if !atM["pre"] {
		t.Errorf("straight-line call missing from must-set: %v", atM)
	}
}

// --- fixture 2: backward liveness ---------------------------------------

type liveFact map[string]bool

type liveProblem struct{}

func (liveProblem) Direction() Direction { return Backward }
func (liveProblem) Boundary() liveFact   { return liveFact{} }
func (liveProblem) Bottom() liveFact     { return liveFact{} }

func (liveProblem) Join(a, b liveFact) liveFact {
	out := liveFact{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func (liveProblem) Equal(a, b liveFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Transfer walks the block backward: assignments kill, uses gen.
func (liveProblem) Transfer(b *cfg.Block, in liveFact) liveFact {
	out := liveFact{}
	for k := range in {
		out[k] = true
	}
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		switch n := b.Nodes[i].(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					delete(out, id.Name)
				}
			}
			for _, r := range n.Rhs {
				genUses(r, out)
			}
		default:
			genUses(n, out)
		}
	}
	return out
}

func genUses(n ast.Node, out liveFact) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Obj == nil {
			out[id.Name] = true
		}
		return true
	})
}

func TestSolverBackwardLiveness(t *testing.T) {
	g := buildCFG(t, `
func f() {
	x = compute()
	if c {
		sink(x)
	}
	x = other()
	if c2 {
		sink2(x)
	}
}`, "f")
	res := Solve[liveFact](g, liveProblem{})
	// x is live right after its first assignment (the sink(x) branch) —
	// for a backward problem In[b] is the fact at the block's end.
	first := blockCalling(t, g, "compute")
	if !res.In[first]["x"] {
		t.Errorf("x not live after first assignment: %v", res.In[first])
	}
	// The first assignment kills x, so before its block x is dead.
	if res.Out[first]["x"] {
		t.Errorf("x live before its first assignment: %v", res.Out[first])
	}
	// The second assignment's x is kept live by the sink2 branch.
	second := blockCalling(t, g, "other")
	if !res.In[second]["x"] {
		t.Errorf("x not live after second assignment: %v", res.In[second])
	}
}
