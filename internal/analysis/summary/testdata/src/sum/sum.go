// Package sum is the summary corpus: direct and inherited effects,
// recursion and generics.
package sum

import (
	"os"
	"time"
)

// Exit terminates the process directly.
func Exit() { os.Exit(1) }

// ExitViaHelper inherits Exit's effect.
func ExitViaHelper() { Exit() }

// Ranges iterates a map directly.
func Ranges(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// A and B recurse mutually; B's wall-clock read must reach A's summary.
func A(n int) {
	if n > 0 {
		B(n - 1)
	}
}

// B closes the cycle.
func B(n int) int64 {
	A(n - 1)
	return time.Now().UnixNano()
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
func Sp() { go Exit() }

// Deep chains three hops so path reconstruction has something to walk.
func Deep() { ExitViaHelper() }
