// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, sized for this repository's analyzers (errflow, on top
// of internal/analysis/dataflow).
//
// The graph is a set of basic blocks. Each block holds the statements and
// expressions evaluated in order; a block that ends in a branch has the
// *atomic* branch condition as its last node, with Succs[0] the true edge
// and Succs[1] the false edge. Compound conditions are decomposed: `if a && b`
// produces one block testing a and a second testing b, so a path-sensitive
// analysis sees every short-circuit edge individually. `!x` swaps the outgoing edges rather than producing a
// synthetic condition.
//
// Modeled control constructs: if/else (with short-circuit decomposition),
// for (all three clauses), range, switch (expression and type switches,
// including fallthrough), select, labeled break/continue, goto, return,
// and panic/os.Exit terminators.
//
// Deferred calls get explicit edges: every defer statement's call is
// appended to a chain of KindDefer blocks that runs — in LIFO order —
// between each return (or the body's fall-off-the-end) and the Exit block.
// The chain deliberately has no bypass edges: a conditional defer is
// treated as always executed (`if opened { defer f.Close() }` patterns are
// out of scope). Panic
// terminators get no successor edges at all: facts on a panicking path
// never reach Exit, so exit-state analyses only see orderly returns.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Kind classifies a block for analyses and tests.
type Kind uint8

// Block kinds.
const (
	KindBody   Kind = iota // plain straight-line code
	KindEntry              // function entry (always Blocks[0])
	KindExit               // function exit (always Blocks[1])
	KindCond               // ends in an atomic branch condition
	KindRange              // range-loop head: Succs[0] iterates, Succs[1] exits
	KindSwitch             // switch head: one successor per case clause
	KindSelect             // select head: one successor per comm clause
	KindDefer              // one deferred call, on the exit chain
	KindPanic              // ends in panic/os.Exit: no successors
)

func (k Kind) String() string {
	switch k {
	case KindBody:
		return "body"
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindCond:
		return "cond"
	case KindRange:
		return "range"
	case KindSwitch:
		return "switch"
	case KindSelect:
		return "select"
	case KindDefer:
		return "defer"
	case KindPanic:
		return "panic"
	}
	return "?"
}

// Block is one basic block.
type Block struct {
	Index int
	Kind  Kind

	// Nodes are the statements/expressions evaluated in this block, in
	// order. A KindCond block's last node is its atomic branch condition
	// (never an &&, || or ! expression — those are decomposed into
	// separate blocks and edge swaps): Succs[0] is taken when it holds,
	// Succs[1] when it does not. A KindDefer block's single node is the
	// deferred *ast.CallExpr.
	Nodes []ast.Node

	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function.
type CFG struct {
	// Fn is the analyzed *ast.FuncDecl or *ast.FuncLit.
	Fn ast.Node
	// Blocks in creation order; Blocks[0] is Entry, Blocks[1] is Exit.
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// New builds the CFG for fn's body. fn must be an *ast.FuncDecl or
// *ast.FuncLit with a non-nil body.
func New(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	default:
		panic(fmt.Sprintf("cfg.New: not a function: %T", fn))
	}
	if body == nil {
		panic("cfg.New: function has no body")
	}
	b := &builder{g: &CFG{Fn: fn}, labels: map[string]*labelInfo{}}
	b.g.Entry = b.newBlock(KindEntry)
	b.g.Exit = b.newBlock(KindExit)
	b.cur = b.newBlock(KindBody)
	b.edge(b.g.Entry, b.cur)
	b.stmtList(body.List)
	// Fall off the end of the body: an implicit return.
	b.exitEdge(b.cur)
	b.buildDeferChain()
	b.prune()
	return b.g
}

// RPO returns the blocks in reverse postorder from Entry over Succs edges:
// the classic iteration order for forward dataflow problems. Unreachable
// blocks (dead code after return) are appended at the end in index order so
// every block receives a position.
func (g *CFG) RPO() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	out := make([]*Block, 0, len(g.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, b := range g.Blocks {
		if !seen[b.Index] {
			out = append(out, b)
		}
	}
	return out
}

// String renders the graph compactly for tests and debugging:
// one line per block, "i kind -> succ,succ".
func (g *CFG) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%d %s ->", b.Index, b.Kind)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " %d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// labelInfo tracks the targets a label can be branched to.
type labelInfo struct {
	breakTo    *Block // after the labeled loop/switch/select
	continueTo *Block // loop head/post of the labeled loop
	gotoTo     *Block // start of the labeled statement
	pendingGo  []*Block
}

type builder struct {
	g   *CFG
	cur *Block

	// break/continue target stacks (innermost last).
	breaks    []*Block
	continues []*Block
	labels    map[string]*labelInfo

	// defers, in lexical encounter order.
	defers []*ast.CallExpr

	// fallthrough target for the switch clause being built.
	fallTo *Block

	// pendingExit collects blocks that exit the function (returns and
	// the body's fall-off end); they are wired through the defer chain
	// once the whole body is built.
	pendingExit []*Block

	// labeledStmt names the label attached to the next loop/switch
	// statement, so `L: for { break L }` resolves.
	labeledStmt string
}

func (b *builder) newBlock(k Kind) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: k}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// exitEdge marks a block as exiting the function; buildDeferChain later
// wires it through the deferred calls to Exit.
func (b *builder) exitEdge(from *Block) {
	if from == nil {
		return
	}
	b.pendingExit = append(b.pendingExit, from)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminated reports whether the current block already branched away.
func (b *builder) startNew(k Kind) *Block {
	nb := b.newBlock(k)
	b.cur = nb
	return nb
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		thenB := b.newBlock(KindBody)
		elseB := b.newBlock(KindBody)
		after := b.newBlock(KindBody)
		b.cond(s.Cond, thenB, elseB)
		b.cur = thenB
		b.stmt(s.Body)
		b.edge(b.cur, after)
		b.cur = elseB
		if s.Else != nil {
			b.stmt(s.Else)
		}
		b.edge(b.cur, after)
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock(KindBody)
		body := b.newBlock(KindBody)
		post := b.newBlock(KindBody)
		after := b.newBlock(KindBody)
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, after)
		} else {
			b.edge(b.cur, body)
		}
		b.pushLoop(after, post, s)
		b.cur = body
		b.stmt(s.Body)
		b.popLoop()
		b.edge(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock(KindRange)
		body := b.newBlock(KindBody)
		after := b.newBlock(KindBody)
		// Carry the range clause without its body: analyses walking
		// head.Nodes must not see the loop body's statements (those live
		// in the body block).
		head.Nodes = append(head.Nodes, &ast.RangeStmt{
			For: s.For, Key: s.Key, Value: s.Value, TokPos: s.TokPos,
			Tok: s.Tok, Range: s.Range, X: s.X,
			Body: &ast.BlockStmt{Lbrace: s.Body.Lbrace, Rbrace: s.Body.Lbrace},
		})
		b.edge(b.cur, head)
		b.edge(head, body)  // Succs[0]: iterate
		b.edge(head, after) // Succs[1]: done
		b.pushLoop(after, head, s)
		b.cur = body
		b.stmt(s.Body)
		b.popLoop()
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.switchClauses(s.Body.List, s.Tag == nil, s)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.switchClauses(s.Body.List, false, s)

	case *ast.SelectStmt:
		head := b.cur
		head.Kind = KindSelect
		after := b.newBlock(KindBody)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			clause := b.newBlock(KindBody)
			b.edge(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		// A select without a default blocks until a comm fires: every
		// successor is a clause. (With zero clauses it blocks forever.)
		b.cur = after

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		start := b.newBlock(KindBody)
		b.edge(b.cur, start)
		li.gotoTo = start
		for _, p := range li.pendingGo {
			b.edge(p, start)
		}
		li.pendingGo = nil
		b.cur = start
		b.labeledStmt = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.BranchStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				b.edge(b.cur, b.label(s.Label.Name).breakTo)
			} else if n := len(b.breaks); n > 0 {
				b.edge(b.cur, b.breaks[n-1])
			}
			b.startNew(KindBody)
		case token.CONTINUE:
			if s.Label != nil {
				b.edge(b.cur, b.label(s.Label.Name).continueTo)
			} else if n := len(b.continues); n > 0 {
				b.edge(b.cur, b.continues[n-1])
			}
			b.startNew(KindBody)
		case token.GOTO:
			li := b.label(s.Label.Name)
			if li.gotoTo != nil {
				b.edge(b.cur, li.gotoTo)
			} else {
				li.pendingGo = append(li.pendingGo, b.cur)
			}
			b.startNew(KindBody)
		case token.FALLTHROUGH:
			b.edge(b.cur, b.fallTo)
			b.startNew(KindBody)
		}

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.exitEdge(b.cur)
		b.startNew(KindBody)

	case *ast.DeferStmt:
		// Argument expressions evaluate here; the call itself runs on
		// the exit chain.
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.defers = append(b.defers, s.Call)

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if isTerminalCall(s.X) {
			b.cur.Kind = KindPanic
			b.startNew(KindBody)
		}

	default:
		// Assignments, declarations, go/send/inc-dec statements and
		// anything else without intraprocedural control flow.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// switchClauses builds the clause blocks of a switch or type switch.
// When condChain is true (an untagged switch), single-expression case
// clauses become KindCond blocks chained by their guard expressions, so
// `switch { case x != nil: ... }` refines like an if/else ladder.
func (b *builder) switchClauses(clauses []ast.Stmt, condChain bool, sw ast.Stmt) {
	after := b.newBlock(KindBody)
	head := b.cur
	if !condChain {
		head.Kind = KindSwitch
	}

	// First pass: create a body block per clause so fallthrough can
	// target the following clause.
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock(KindBody)
		if len(c.(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}

	if condChain {
		// Chain of guard tests; default (or fall-off) goes to after.
		cur := head
		for i, c := range clauses {
			cc := c.(*ast.CaseClause)
			if len(cc.List) == 0 {
				continue // default: wired below
			}
			next := b.newBlock(KindBody)
			b.cur = cur
			if len(cc.List) == 1 {
				b.cond(cc.List[0], bodies[i], next)
			} else {
				// `case a, b:` — either guard may fire.
				for _, e := range cc.List {
					mid := b.newBlock(KindBody)
					b.cond(e, bodies[i], mid)
					b.cur = mid
				}
				b.edge(b.cur, next)
			}
			cur = next
		}
		// The chain's fall-through end: default clause or after.
		target := after
		for i, c := range clauses {
			if len(c.(*ast.CaseClause).List) == 0 {
				target = bodies[i]
			}
		}
		b.edge(cur, target)
	} else {
		for i, c := range clauses {
			cc := c.(*ast.CaseClause)
			// Case guard expressions only — the clause body statements
			// are added by the fill pass below.
			for _, e := range cc.List {
				bodies[i].Nodes = append(bodies[i].Nodes, e)
			}
			b.edge(head, bodies[i])
		}
		if !hasDefault {
			b.edge(head, after)
		}
	}

	// Second pass: fill clause bodies.
	b.pushBreak(after, sw)
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = bodies[i]
		if i+1 < len(clauses) {
			b.fallTo = bodies[i+1]
		} else {
			b.fallTo = after
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.fallTo = nil
	b.popBreak()
	b.cur = after
}

// cond terminates the current block(s) with the decomposed condition e:
// control reaches t when e holds and f when it does not. Each atomic
// (non-&&/||/!) subexpression gets its own KindCond block.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch ex := e.(type) {
	case *ast.ParenExpr:
		b.cond(ex.X, t, f)
		return
	case *ast.UnaryExpr:
		if ex.Op == token.NOT {
			b.cond(ex.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.LAND:
			mid := b.newBlock(KindBody)
			b.cond(ex.X, mid, f)
			b.cur = mid
			b.cond(ex.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock(KindBody)
			b.cond(ex.X, t, mid)
			b.cur = mid
			b.cond(ex.Y, t, f)
			return
		}
	}
	b.cur.Kind = KindCond
	b.cur.Nodes = append(b.cur.Nodes, e)
	b.edge(b.cur, t) // Succs[0]: condition holds
	b.edge(b.cur, f) // Succs[1]: condition fails
}

// --- label / loop-stack plumbing ----------------------------------------

func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

// labeledStmt is the label naming the next loop/switch statement, if any.
func (b *builder) pushLoop(brk, cont *Block, s ast.Stmt) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if b.labeledStmt != "" {
		li := b.label(b.labeledStmt)
		li.breakTo = brk
		li.continueTo = cont
		b.labeledStmt = ""
	}
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *builder) pushBreak(brk *Block, s ast.Stmt) {
	b.breaks = append(b.breaks, brk)
	if b.labeledStmt != "" {
		b.label(b.labeledStmt).breakTo = brk
		b.labeledStmt = ""
	}
}

func (b *builder) popBreak() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

// buildDeferChain wires every pending exit block through the deferred
// calls (LIFO) to Exit.
func (b *builder) buildDeferChain() {
	target := b.g.Exit
	for _, call := range b.defers { // chain built exit-backwards => LIFO
		d := b.newBlock(KindDefer)
		d.Nodes = append(d.Nodes, call)
		b.edge(d, target)
		target = d
	}
	for _, from := range b.pendingExit {
		b.edge(from, target)
	}
}

// prune drops empty unreachable scratch blocks (created after returns and
// branches) from the block list, renumbering the rest. Entry/Exit stay.
func (b *builder) prune() {
	keep := b.g.Blocks[:0]
	for _, blk := range b.g.Blocks {
		if blk != b.g.Entry && blk != b.g.Exit &&
			len(blk.Preds) == 0 && len(blk.Nodes) == 0 && len(blk.Succs) <= 1 {
			// Disconnect from any successor's pred list.
			for _, s := range blk.Succs {
				s.Preds = removeBlock(s.Preds, blk)
			}
			continue
		}
		keep = append(keep, blk)
	}
	for i, blk := range keep {
		blk.Index = i
	}
	b.g.Blocks = keep
}

func removeBlock(list []*Block, b *Block) []*Block {
	out := list[:0]
	for _, x := range list {
		if x != b {
			out = append(out, x)
		}
	}
	return out
}

// isTerminalCall reports whether the expression is a call that never
// returns: panic(...), os.Exit(...), or a method named Fatal/Fatalf.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "os" && fun.Sel.Name == "Exit" {
			return true
		}
		return fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf"
	}
	return false
}
