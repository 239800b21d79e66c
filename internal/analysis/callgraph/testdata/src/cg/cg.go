// Package cg is the callgraph corpus: interface dispatch (same-package and
// cross-package implementors), generics, mutual recursion, go-spawns,
// closures and dynamic calls.
package cg

import (
	"strings"

	"burstmem/internal/analysis/callgraph/testdata/src/cgdep"
)

// Iface is dispatched through CHA.
type Iface interface{ M(int) int }

// Local implements Iface in the calling package.
type Local struct{}

// M is the local implementation.
func (Local) M(x int) int { return x }

// CallIface dispatches: CHA must resolve both Local.M and cgdep.Impl.M.
func CallIface(v Iface) int { return v.M(1) }

// Static calls across packages and into the stdlib (an external node).
func Static() string { return strings.ToUpper(name()) }

func name() string { return "x" }

// CrossPkg is a plain static cross-package call.
func CrossPkg() int { return cgdep.Helper() }

// Rec and Mutual form one SCC.
func Rec(n int) int {
	if n == 0 {
		return 0
	}
	return Mutual(n - 1)
}

// Mutual closes the recursion cycle.
func Mutual(n int) int { return Rec(n - 1) }

// Generic is resolved to its origin for every instantiation.
func Generic[T any](v T) T { return v }

// CallsGeneric uses explicit instantiation.
func CallsGeneric() int { return Generic[int](3) }

// CallsGenericInferred uses inferred instantiation.
func CallsGenericInferred() string { return Generic("x") }

// Dyn calls through a function value: a calleeless dynamic edge.
func Dyn(f func() int) int { return f() }

// Spawner launches a named function: a spawn edge.
func Spawner() { go worker() }

func worker() {}

// Closures: f is not called where written (Lit edge); the immediate
// invocation is a static edge to its literal; g() is a dynamic call
// through a variable.
func Closures() func() int {
	f := func() int { return cgdep.Helper() }
	n := func() int { return 2 }()
	g := f
	_ = g()
	return func() func() int { // nested literals get their own nodes
		inner := func() int { return n }
		return inner
	}()
}
