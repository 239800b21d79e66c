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

func has(t *testing.T, set *Set, fn string, k Kind) Effect {
	t.Helper()
	sum := set.Funcs[callgraph.ID(pkg+"."+fn)]
	if sum == nil {
		t.Fatalf("no summary for %s", fn)
	}
	e, ok := sum.Effects[k]
	if !ok {
		t.Fatalf("%s missing effect %v; has %v", fn, k, sum.Effects)
	}
	return e
}

func TestDirectEffects(t *testing.T) {
	set := loadSet(t)
	if e := has(t, set, "Exit", ProcExit); e.Via != "" {
		t.Errorf("direct exit has Via %q", e.Via)
	}
	has(t, set, "Ranges", MapRange)
	has(t, set, "Clock", WallClock)
}

func TestInheritedEffects(t *testing.T) {
	set := loadSet(t)
	e := has(t, set, "ExitViaHelper", ProcExit)
	if e.Via != callgraph.ID(pkg+".Exit") {
		t.Errorf("inherited exit Via = %q, want Exit", e.Via)
	}
	has(t, set, "CallsClock", WallClock)
	has(t, set, "CallsIter", MapRange)
	// Spawned callee effects surface in the spawner.
	has(t, set, "Sp", Spawn)
	has(t, set, "Sp", ProcExit)
}

func TestRecursiveFixedPoint(t *testing.T) {
	set := loadSet(t)
	// B reads the clock directly; A only through the cycle — both converge.
	has(t, set, "B", WallClock)
	has(t, set, "A", WallClock)
}

func TestPath(t *testing.T) {
	set := loadSet(t)
	path := set.Path(callgraph.ID(pkg+".Deep"), ProcExit)
	joined := strings.Join(path, " -> ")
	if joined != "sum.ExitViaHelper -> sum.Exit" {
		t.Errorf("path = %q, want sum.ExitViaHelper -> sum.Exit", joined)
	}
}
