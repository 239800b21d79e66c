package summary

import (
	"strings"
	"testing"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/callgraph"
)

const pkg = "burstmem/internal/analysis/summary/testdata/src/sum"

func loadSet(t *testing.T) *Set {
	t.Helper()
	pkgs, err := analysis.Load("./testdata/src/sum")
	if err != nil {
		t.Fatal(err)
	}
	prog := analysis.NewProgram(pkgs)
	if len(prog.Broken) > 0 {
		t.Fatalf("corpus has load errors: %v", prog.Broken[0].Errors)
	}
	return Of(prog)
}

func has(t *testing.T, set *Set, fn string, k Kind, target string) Effect {
	t.Helper()
	sum := set.Funcs[callgraph.ID(pkg+"."+fn)]
	if sum == nil {
		t.Fatalf("no summary for %s", fn)
	}
	e, ok := sum.Effects[Key{Kind: k, Target: target}]
	if !ok {
		t.Fatalf("%s missing effect %v %q; has %v", fn, k, target, sum.Sorted())
	}
	return e
}

func hasNot(t *testing.T, set *Set, fn string, k Kind, target string) {
	t.Helper()
	sum := set.Funcs[callgraph.ID(pkg+"."+fn)]
	if sum == nil {
		t.Fatalf("no summary for %s", fn)
	}
	if _, ok := sum.Effects[Key{Kind: k, Target: target}]; ok {
		t.Fatalf("%s unexpectedly has effect %v %q", fn, k, target)
	}
}

func TestDirectEffects(t *testing.T) {
	set := loadSet(t)
	if e := has(t, set, "WriteG", GlobalWrite, pkg+".G"); e.Via != "" {
		t.Errorf("direct write has Via %q", e.Via)
	}
	has(t, set, "SetTable", GlobalWrite, pkg+".Table")
	has(t, set, "Clock", WallClock, "")
}

func TestLocalityFilter(t *testing.T) {
	set := loadSet(t)
	hasNot(t, set, "LocalOnly", GlobalWrite, pkg+".G")
}

func TestInheritedEffects(t *testing.T) {
	set := loadSet(t)
	e := has(t, set, "WriteViaHelper", GlobalWrite, pkg+".G")
	if e.Via != callgraph.ID(pkg+".WriteG") {
		t.Errorf("inherited write Via = %q, want WriteG", e.Via)
	}
	has(t, set, "CallsClock", WallClock, "")
	has(t, set, "CallsIter", MapRange, "")
	// Spawned callee effects surface in the spawner.
	has(t, set, "Sp", Spawn, "")
	has(t, set, "Sp", GlobalWrite, pkg+".G")
}

func TestRecursiveFixedPoint(t *testing.T) {
	set := loadSet(t)
	// B writes directly; A only through the cycle — both converge.
	has(t, set, "B", GlobalWrite, pkg+".Depth")
	has(t, set, "A", GlobalWrite, pkg+".Depth")
}

func TestPath(t *testing.T) {
	set := loadSet(t)
	path := set.Path(callgraph.ID(pkg+".Deep"), Key{Kind: GlobalWrite, Target: pkg + ".G"})
	joined := strings.Join(path, " -> ")
	if joined != "sum.WriteViaHelper -> sum.WriteG" {
		t.Errorf("path = %q, want sum.WriteViaHelper -> sum.WriteG", joined)
	}
}
