// Package sum is the summary corpus: direct and inherited effects,
// recursion, generics and locality filtering.
package sum

import "time"

// G is a written global.
var G int

// Depth is written only inside the A/B recursion.
var Depth int

// Table is a global filled element by element.
var Table [4]int

// WriteG writes a global directly.
func WriteG() { G = 1 }

// WriteViaHelper inherits WriteG's effect.
func WriteViaHelper() { WriteG() }

// SetTable writes an element of a global: attributed to the global.
func SetTable(i int) { Table[i] = 2 }

// LocalOnly writes a local that shadows G: not an effect.
func LocalOnly() int {
	G := 0
	G = 3
	return G
}

// A and B recurse mutually; B's global write must reach A's summary.
func A(n int) {
	if n > 0 {
		B(n - 1)
	}
}

// B closes the cycle.
func B(n int) {
	Depth = n
	A(n - 1)
}

// Iter ranges over a map inside a generic body.
func Iter[T any](m map[string]T) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// CallsIter inherits the map-range effect through the generic origin.
func CallsIter() int { return Iter(map[string]int{"a": 1}) }

// Clock reads the wall clock.
func Clock() int64 { return time.Now().UnixNano() }

// CallsClock inherits it.
func CallsClock() int64 { return Clock() }

// Sp spawns a goroutine and inherits the spawned function's effects.
func Sp() { go WriteG() }

// Deep chains three hops so path reconstruction has something to walk.
func Deep() { WriteViaHelper() }
