package callgraph

import (
	"testing"

	"burstmem/internal/analysis"
)

const (
	cgPath  = "burstmem/internal/analysis/callgraph/testdata/src/cg"
	depPath = "burstmem/internal/analysis/callgraph/testdata/src/cgdep"
)

func loadGraph(t *testing.T) *Graph {
	t.Helper()
	pkgs, err := analysis.Load("./testdata/src/cg", "./testdata/src/cgdep")
	if err != nil {
		t.Fatal(err)
	}
	prog := analysis.NewProgram(pkgs)
	if len(prog.Broken) > 0 {
		t.Fatalf("corpus has load errors: %v", prog.Broken[0].Errors)
	}
	return Build(prog)
}

func ids(list []ID) []string {
	out := make([]string, len(list))
	for i, id := range list {
		out[i] = string(id)
	}
	return out
}

func wantCallees(t *testing.T, g *Graph, caller string, want ...string) {
	t.Helper()
	got := ids(g.Callees(ID(caller)))
	if len(got) != len(want) {
		t.Fatalf("%s callees = %v, want %v", caller, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s callees = %v, want %v", caller, got, want)
		}
	}
}

func TestInterfaceDispatchCHA(t *testing.T) {
	g := loadGraph(t)
	// Both implementors, including the one in the separately type-checked
	// dependency package, must resolve.
	wantCallees(t, g, cgPath+".CallIface",
		cgPath+".(Local).M",
		depPath+".(*Impl).M",
	)
	fn := g.Funcs[ID(cgPath+".CallIface")]
	for _, e := range fn.Out {
		if e.Kind != Interface {
			t.Errorf("CallIface edge kind = %v, want interface", e.Kind)
		}
	}
}

func TestStaticAndExternalCalls(t *testing.T) {
	g := loadGraph(t)
	wantCallees(t, g, cgPath+".Static", cgPath+".name", "strings.ToUpper")
	wantCallees(t, g, cgPath+".CrossPkg", depPath+".Helper")
	if ext := g.Funcs["strings.ToUpper"]; ext == nil || ext.Body() != nil || ext.Pkg != nil {
		t.Errorf("strings.ToUpper should be an external bodyless node, got %+v", ext)
	}
}

func TestGenericsResolveToOrigin(t *testing.T) {
	g := loadGraph(t)
	wantCallees(t, g, cgPath+".CallsGeneric", cgPath+".Generic")
	wantCallees(t, g, cgPath+".CallsGenericInferred", cgPath+".Generic")
}

func TestDynamicCall(t *testing.T) {
	g := loadGraph(t)
	fn := g.Funcs[ID(cgPath+".Dyn")]
	if len(fn.Out) != 1 || fn.Out[0].Kind != Dynamic || fn.Out[0].Callee != nil {
		t.Fatalf("Dyn edges = %+v, want one calleeless dynamic edge", fn.Out)
	}
}

func TestSpawnEdge(t *testing.T) {
	g := loadGraph(t)
	fn := g.Funcs[ID(cgPath+".Spawner")]
	if len(fn.Out) != 1 || fn.Out[0].Kind != Spawn || fn.Out[0].Callee.ID != ID(cgPath+".worker") {
		t.Fatalf("Spawner edges = %+v, want one spawn edge to worker", fn.Out)
	}
}

func TestClosureEdges(t *testing.T) {
	g := loadGraph(t)
	fn := g.Funcs[ID(cgPath+".Closures")]
	kinds := map[ID]EdgeKind{}
	dynamics := 0
	for _, e := range fn.Out {
		if e.Callee == nil {
			dynamics++
			continue
		}
		kinds[e.Callee.ID] = e.Kind
	}
	if k := kinds[ID(cgPath+".Closures$1")]; k != Lit {
		t.Errorf("edge to $1 (stored closure) = %v, want lit", k)
	}
	if k := kinds[ID(cgPath+".Closures$2")]; k != Static {
		t.Errorf("edge to $2 (immediately invoked) = %v, want static", k)
	}
	if k := kinds[ID(cgPath+".Closures$3")]; k != Static {
		t.Errorf("edge to $3 (immediately invoked) = %v, want static", k)
	}
	if dynamics != 1 {
		t.Errorf("dynamic edges = %d, want 1 (the g() call)", dynamics)
	}
	// The nested literal belongs to $3, not to Closures.
	inner := g.Funcs[ID(cgPath+".Closures$4")]
	if inner == nil || inner.Parent == nil || inner.Parent.ID != ID(cgPath+".Closures$3") {
		t.Fatalf("nested literal parent = %+v, want Closures$3", inner)
	}
	wantCallees(t, g, cgPath+".Closures$3", cgPath+".Closures$4")
	// $1's own body calls cgdep.Helper.
	wantCallees(t, g, cgPath+".Closures$1", depPath+".Helper")
}

func TestSCCsBottomUp(t *testing.T) {
	g := loadGraph(t)
	sccs := g.SCCs()
	pos := map[ID]int{}
	size := map[ID]int{}
	for i, comp := range sccs {
		for _, fn := range comp {
			pos[fn.ID] = i
			size[fn.ID] = len(comp)
		}
	}
	rec, mut := ID(cgPath+".Rec"), ID(cgPath+".Mutual")
	if pos[rec] != pos[mut] || size[rec] != 2 {
		t.Fatalf("Rec/Mutual not in one SCC of size 2 (pos %d/%d size %d)", pos[rec], pos[mut], size[rec])
	}
	// Bottom-up: every callee's component comes no later than its caller's.
	for _, fn := range g.Source {
		for _, e := range fn.Out {
			if e.Callee == nil || e.Callee.Body() == nil {
				continue
			}
			if pos[e.Callee.ID] > pos[fn.ID] {
				t.Errorf("SCC order not bottom-up: %s (comp %d) calls %s (comp %d)",
					fn.ID, pos[fn.ID], e.Callee.ID, pos[e.Callee.ID])
			}
		}
	}
}
