package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// build parses src (the body of `func f(...)` declarations) and returns the
// CFG of the named function.
func build(t *testing.T, src, fn string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return New(fd)
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil
}

// byKind collects the blocks of one kind.
func byKind(g *CFG, k Kind) []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.Kind == k {
			out = append(out, b)
		}
	}
	return out
}

// condOf finds the KindCond block whose condition, its last node, renders
// as s.
func condOf(t *testing.T, g *CFG, s string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		if b.Kind != KindCond {
			continue
		}
		if e, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr); ok && types.ExprString(e) == s {
			return b
		}
	}
	t.Fatalf("no cond block %q in\n%s", s, g)
	return nil
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// reaches reports whether to is reachable from from over Succs edges.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	var dfs func(*Block) bool
	dfs = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

func TestCFGShortCircuitAnd(t *testing.T) {
	g := build(t, `
func f(a, b bool) int {
	if a && b {
		return 1
	}
	return 0
}`, "f")
	ca := condOf(t, g, "a")
	cb := condOf(t, g, "b")
	// a's true edge must lead (possibly via an empty block) to testing b;
	// a's false edge must skip b entirely.
	if !reaches(ca.Succs[0], cb) {
		t.Errorf("true edge of a does not reach cond b:\n%s", g)
	}
	if reaches(ca.Succs[1], cb) {
		t.Errorf("false edge of a short-circuits through b:\n%s", g)
	}
	// Both false edges land on the same join (the `return 0` path).
	if !reaches(cb.Succs[1], g.Exit) || !reaches(ca.Succs[1], g.Exit) {
		t.Errorf("false edges do not reach exit:\n%s", g)
	}
}

func TestCFGShortCircuitOrNot(t *testing.T) {
	g := build(t, `
func f(a, b bool) int {
	if !a || b {
		return 1
	}
	return 0
}`, "f")
	ca := condOf(t, g, "a")
	cb := condOf(t, g, "b")
	// `!a` swaps edges: the *false* edge of a (i.e. !a true) must reach
	// the then-branch without testing b; the true edge tests b.
	if reaches(ca.Succs[1], cb) {
		t.Errorf("!a true edge still tests b:\n%s", g)
	}
	if !reaches(ca.Succs[0], cb) {
		t.Errorf("!a false edge does not test b:\n%s", g)
	}
}

func TestCFGForLoop(t *testing.T) {
	g := build(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if s > 10 {
			break
		}
		if i == 3 {
			continue
		}
		s += i
	}
	return s
}`, "f")
	head := condOf(t, g, "i < n")
	// Body must loop back to the head (via the post block) and break must
	// bypass it.
	if !reaches(head.Succs[0], head) {
		t.Errorf("loop body has no back edge:\n%s", g)
	}
	brk := condOf(t, g, "s > 10")
	if !reaches(brk.Succs[0], g.Exit) {
		t.Errorf("break does not reach exit:\n%s", g)
	}
	cont := condOf(t, g, "i == 3")
	if !reaches(cont.Succs[0], head) {
		t.Errorf("continue does not return to the loop head:\n%s", g)
	}
}

func TestCFGRange(t *testing.T) {
	g := build(t, `
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`, "f")
	heads := byKind(g, KindRange)
	if len(heads) != 1 {
		t.Fatalf("got %d range blocks, want 1:\n%s", len(heads), g)
	}
	h := heads[0]
	if len(h.Succs) != 2 {
		t.Fatalf("range head has %d succs, want 2 (iterate, done):\n%s", len(h.Succs), g)
	}
	body, done := h.Succs[0], h.Succs[1]
	if !hasEdge(body, h) {
		t.Errorf("range body lacks the back edge:\n%s", g)
	}
	if !reaches(done, g.Exit) || reaches(done, h) {
		t.Errorf("range done edge wrong:\n%s", g)
	}
	// The RangeStmt itself must be visible to transfer functions.
	found := false
	for _, n := range h.Nodes {
		if _, ok := n.(*ast.RangeStmt); ok {
			found = true
		}
	}
	if !found {
		t.Errorf("range head does not carry the RangeStmt node")
	}
}

func TestCFGSelect(t *testing.T) {
	g := build(t, `
func f(a, b chan int) int {
	select {
	case x := <-a:
		return x
	case <-b:
		return 1
	}
}`, "f")
	heads := byKind(g, KindSelect)
	if len(heads) != 1 {
		t.Fatalf("got %d select blocks, want 1:\n%s", len(heads), g)
	}
	if n := len(heads[0].Succs); n != 2 {
		t.Fatalf("select head has %d succs, want 2 (one per clause):\n%s", n, g)
	}

	// With a default clause the head gains a third successor and no
	// direct edge to the join: control always enters some clause.
	g2 := build(t, `
func g(a chan int) int {
	n := 0
	select {
	case <-a:
		n = 1
	default:
		n = 2
	}
	return n
}`, "g")
	h2 := byKind(g2, KindSelect)[0]
	if n := len(h2.Succs); n != 2 {
		t.Fatalf("select-with-default head has %d succs, want 2:\n%s", n, g2)
	}
}

func TestCFGDeferEdges(t *testing.T) {
	g := build(t, `
func f(c bool) int {
	defer first()
	if c {
		return 1
	}
	defer second()
	return 0
}`, "f")
	defers := byKind(g, KindDefer)
	if len(defers) != 2 {
		t.Fatalf("got %d defer blocks, want 2:\n%s", len(defers), g)
	}
	// LIFO: the block adjacent to Exit runs the lexically-first defer.
	var exitSide *Block
	for _, d := range defers {
		if hasEdge(d, g.Exit) {
			exitSide = d
		}
	}
	if exitSide == nil {
		t.Fatalf("no defer block feeds exit:\n%s", g)
	}
	call := exitSide.Nodes[0].(*ast.CallExpr)
	if name := types.ExprString(call.Fun); name != "first" {
		t.Errorf("defer adjacent to exit runs %s, want first (LIFO)", name)
	}
	// Every return must pass through the defer chain, not jump straight
	// to Exit.
	for _, p := range g.Exit.Preds {
		if p.Kind != KindDefer {
			t.Errorf("exit has non-defer predecessor (kind %s):\n%s", p.Kind, g)
		}
	}
}

func TestCFGSwitchTagAndFallthrough(t *testing.T) {
	g := build(t, `
func f(x int) int {
	n := 0
	switch x {
	case 1:
		n = 1
		fallthrough
	case 2:
		n = 2
	default:
		n = 3
	}
	return n
}`, "f")
	heads := byKind(g, KindSwitch)
	if len(heads) != 1 {
		t.Fatalf("got %d switch heads, want 1:\n%s", len(heads), g)
	}
	if n := len(heads[0].Succs); n != 3 {
		t.Fatalf("switch head has %d succs, want 3 (with default, no bypass):\n%s", n, g)
	}
	// Fallthrough: clause 1's body must have an edge into clause 2's body.
	c1, c2 := heads[0].Succs[0], heads[0].Succs[1]
	if !hasEdge(c1, c2) {
		t.Errorf("fallthrough edge missing:\n%s", g)
	}
}

func TestCFGUntaggedSwitchRefines(t *testing.T) {
	// An untagged switch is an if/else ladder: case guards become cond
	// blocks usable for nil-test refinement.
	g := build(t, `
func f(p *int) int {
	switch {
	case p == nil:
		return 0
	case *p > 3:
		return 1
	}
	return 2
}`, "f")
	condOf(t, g, "p == nil")
	condOf(t, g, "*p > 3")
}

func TestCFGPanicTerminates(t *testing.T) {
	g := build(t, `
func f(c bool) int {
	if c {
		panic("boom")
	}
	return 1
}`, "f")
	panics := byKind(g, KindPanic)
	if len(panics) != 1 {
		t.Fatalf("got %d panic blocks, want 1:\n%s", len(panics), g)
	}
	if len(panics[0].Succs) != 0 {
		t.Errorf("panic block has successors:\n%s", g)
	}
}

func TestCFGGoto(t *testing.T) {
	g := build(t, `
func f(n int) int {
	i := 0
loop:
	i++
	if i < n {
		goto loop
	}
	return i
}`, "f")
	c := condOf(t, g, "i < n")
	if !reaches(c.Succs[0], c) {
		t.Errorf("goto back edge missing:\n%s", g)
	}
}

func TestCFGRPO(t *testing.T) {
	g := build(t, `
func f(a, b bool) int {
	x := 0
	if a {
		x = 1
	} else if b {
		x = 2
	}
	return x
}`, "f")
	order := g.RPO()
	if order[0] != g.Entry {
		t.Fatalf("RPO does not start at entry")
	}
	pos := make(map[*Block]int, len(order))
	for i, b := range order {
		pos[b] = i
	}
	if len(pos) != len(g.Blocks) {
		t.Fatalf("RPO covers %d blocks, want %d", len(pos), len(g.Blocks))
	}
	// In an acyclic graph every edge goes forward in RPO.
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if pos[s] <= pos[b] {
				t.Errorf("edge %d->%d goes backward in RPO of acyclic graph:\n%s", b.Index, s.Index, g)
			}
		}
	}
}

func TestCFGString(t *testing.T) {
	g := build(t, `func f() {}`, "f")
	if s := g.String(); !strings.Contains(s, "entry") || !strings.Contains(s, "exit") {
		t.Errorf("String() = %q, want entry and exit lines", s)
	}
}
