// Package summary computes per-function effect summaries over the call
// graph: whether a function, directly or through anything it calls,
// reaches a nondeterminism source (wall-clock time, map iteration,
// process-seeded rand), spawns goroutines, or can exit the process.
//
// Summaries are computed bottom-up over the strongly connected components
// of the call graph: a function's summary is its direct effects joined
// with the summaries of everything it calls, and mutually recursive
// components iterate to a fixed point. The lattice is a map from effect
// kind to a provenance record; join is set union with a deterministic
// tie-break (smallest source position wins), so the fixed point is unique
// and diagnostics built on it never depend on iteration order. Calls
// through function values the graph cannot resolve contribute nothing.
//
// External callees (export data only — the stdlib) are assumed effect-free
// except for the explicit nondeterminism table: time.Now/Since/Until and
// anything in math/rand or math/rand/v2. This matches detlint's source
// list; the rest of the stdlib the simulator uses (fmt, sort, strings...)
// is deterministic and writes no simulator state.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/callgraph"
)

// Kind classifies one effect.
type Kind uint8

// Effect kinds.
const (
	// WallClock: time.Now/Since/Until is reached.
	WallClock Kind = iota
	// MapRange: a `for range` over a map is reached.
	MapRange
	// GlobalRand: math/rand or math/rand/v2 is reached.
	GlobalRand
	// Spawn: a goroutine is launched.
	Spawn
	// ProcExit: os.Exit or a fatal logger is reached — the process may
	// terminate without running the pending defers of calling frames.
	ProcExit
)

func (k Kind) String() string {
	switch k {
	case WallClock:
		return "wall-clock time"
	case MapRange:
		return "map iteration"
	case GlobalRand:
		return "process-seeded rand"
	case Spawn:
		return "goroutine spawn"
	case ProcExit:
		return "process exit"
	}
	return "?"
}

// Effect is one summarized fact with provenance.
type Effect struct {
	Kind Kind
	// Pos is the ultimate source site (the range clause, the go
	// statement, the time.Now call), wherever in the call tree it lives.
	Pos token.Pos
	// Via is the immediate callee the effect was inherited from (""
	// when the effect is direct), CallPos the inheriting call site.
	Via     callgraph.ID
	CallPos token.Pos
}

// Summary is one function's fixed-point effect set.
type Summary struct {
	Fn      *callgraph.Func
	Effects map[Kind]Effect
}

// Set holds every function's summary plus the graph it was computed over.
type Set struct {
	Graph *callgraph.Graph
	Funcs map[callgraph.ID]*Summary
}

// Of returns the program's summaries, computing them once per Program
// (the summary-cache: detflow and leakcheck share this build, which also
// keeps burstlint's wall time flat as analyzers stack).
func Of(prog *analysis.Program) *Set {
	return prog.Cached("summary", func() any {
		return build(prog)
	}).(*Set)
}

func build(prog *analysis.Program) *Set {
	g := callgraph.Build(prog)
	set := &Set{Graph: g, Funcs: map[callgraph.ID]*Summary{}}
	for _, fn := range g.Source {
		set.Funcs[fn.ID] = &Summary{Fn: fn, Effects: direct(fn)}
	}
	// Bottom-up over SCCs; iterate each component to its fixed point.
	for _, comp := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, fn := range comp {
				if set.propagate(fn) {
					changed = true
				}
			}
		}
	}
	return set
}

// propagate joins callee summaries into fn's; reports whether fn changed.
func (set *Set) propagate(fn *callgraph.Func) bool {
	sum := set.Funcs[fn.ID]
	changed := false
	for _, e := range fn.Out {
		if e.Callee == nil {
			continue
		}
		csum := set.Funcs[e.Callee.ID]
		if csum == nil {
			continue // external: effect-free beyond the nondet table
		}
		for k, ce := range csum.Effects {
			cand := Effect{Kind: k, Pos: ce.Pos, Via: e.Callee.ID, CallPos: e.Pos}
			if merge(sum.Effects, cand) {
				changed = true
			}
		}
	}
	return changed
}

// merge inserts cand unless an equal-or-smaller record already holds its
// kind. Ordering by (Pos, CallPos, Via) makes the fixed point independent
// of map iteration order.
func merge(effects map[Kind]Effect, cand Effect) bool {
	cur, ok := effects[cand.Kind]
	if ok && !less(cand, cur) {
		return false
	}
	effects[cand.Kind] = cand
	return true
}

func less(a, b Effect) bool {
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	if a.CallPos != b.CallPos {
		return a.CallPos < b.CallPos
	}
	return a.Via < b.Via
}

// Path renders the call chain from fn to the ultimate source of the
// effect of kind k: the short names of the Via links, in call order.
// Empty for direct effects.
func (set *Set) Path(id callgraph.ID, k Kind) []string {
	var out []string
	seen := map[callgraph.ID]bool{}
	for {
		sum := set.Funcs[id]
		if sum == nil {
			return out
		}
		e, ok := sum.Effects[k]
		if !ok || e.Via == "" || seen[e.Via] {
			return out
		}
		seen[e.Via] = true
		if via := set.Funcs[e.Via]; via != nil {
			out = append(out, via.Fn.Name)
		} else {
			out = append(out, string(e.Via))
		}
		id = e.Via
	}
}

// nondetExternals maps external callee IDs (and ID prefixes) to effects.
func externalEffect(id callgraph.ID) (Kind, bool) {
	switch id {
	case "time.Now", "time.Since", "time.Until":
		return WallClock, true
	case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
		return ProcExit, true
	}
	s := string(id)
	if strings.HasPrefix(s, "math/rand.") || strings.HasPrefix(s, "math/rand/v2.") {
		return GlobalRand, true
	}
	return 0, false
}

// direct extracts one function's own effects: map ranges and go
// statements from its AST (nested literal bodies excluded — literals are
// separate nodes whose effects arrive through Lit/Static/Spawn edges),
// nondeterminism and process exits from its resolved edges.
func direct(fn *callgraph.Func) map[Kind]Effect {
	effects := map[Kind]Effect{}
	for _, e := range fn.Out {
		if e.Callee == nil {
			continue
		}
		if k, ok := externalEffect(e.Callee.ID); ok {
			merge(effects, Effect{Kind: k, Pos: e.Pos})
		}
	}
	body := fn.Body()
	if body == nil {
		return effects
	}
	info := fn.Pkg.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own node
		case *ast.GoStmt:
			merge(effects, Effect{Kind: Spawn, Pos: n.Pos()})
		case *ast.RangeStmt:
			if tv := info.Types[n.X]; tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					merge(effects, Effect{Kind: MapRange, Pos: n.Pos()})
				}
			}
		}
		return true
	})
	return effects
}
