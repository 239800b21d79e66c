// Package main is errflow test data; its import path contains a cmd
// element, putting it in the analyzer's scope.
package main

import (
	"fmt"
	"os"
)

func open() (*os.File, error) { return nil, nil }
func flush() error            { return nil }
func parse(f *os.File) error  { return nil }
func count() (int, error)     { return 0, nil }
func sink(err error)          { _ = err }
func fatal(err error)         { os.Exit(1) }

// dropped: bare statement call with an error result.
func dropped(f *os.File) {
	f.Close() // want `error result of f\.Close is dropped`
}

// blankDiscard: `_ =` is the same drop and needs a lint:ignore.
func blankDiscard() {
	_ = flush() // want `error discarded into _`
}

func blankTuple() int {
	n, _ := count() // want `error discarded into _`
	return n
}

// checked: the canonical if-err pattern.
func checked(f *os.File) {
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// emptyCheck: comparing the error with nil reads it, but an empty body
// handles nothing.
func emptyCheck(f *os.File) {
	if err := f.Close(); err != nil { // want `error check has an empty body`
	}
	err := flush()
	if nil != err { // want `error check has an empty body`
	}
	if err := parse(f); err == nil { // want `error check has an empty body`
	}
}

// emptySuccessBranch: an empty success branch is fine when the else
// handles the error, and so is an empty body on a non-error comparison.
func emptySuccessBranch(f *os.File) {
	if err := f.Close(); err == nil {
	} else {
		fatal(err)
	}
	if f != nil {
	}
}

// returned: passing the error up is a use.
func returned(f *os.File) error {
	return parse(f)
}

// oneLivePathSuffices: only one branch reads err, but that is a path.
func oneLivePathSuffices(verbose bool) {
	err := flush()
	if verbose {
		sink(err)
	}
}

// deadFirstWrite: err is overwritten on every path before being read.
func deadFirstWrite(f *os.File) {
	err := parse(f) // want `err assigned here is dead`
	err = flush()
	sink(err)
}

// deadLastWrite: err is read before but never after the second
// assignment, so the function returns with the flush error unexamined.
// (A fully unread `:=` is already a compile error; the dataflow variant
// the compiler cannot see is exactly this one.)
func deadLastWrite() {
	var err error
	sink(err)
	err = flush() // want `err assigned here is dead`
}

// closureKeepsAlive: a deferred closure reading err is a use.
func closureKeepsAlive(f *os.File) {
	var err error
	defer func() { sink(err) }()
	err = parse(f)
}

// namedResultLive: writes to a named error result reach the caller.
func namedResultLive(f *os.File) (err error) {
	err = parse(f)
	return
}

// deferredClose: deferring a Close on a read-only file is idiomatic.
func deferredClose() error {
	f, err := open()
	if err != nil {
		return err
	}
	defer f.Close()
	return parse(f)
}

// bestEffortDiagnostics: the fmt print family is excluded.
func bestEffortDiagnostics(err error) {
	fmt.Fprintln(os.Stderr, "ef:", err)
	fmt.Println("done")
}

// suppressed: an intentional drop carries a lint:ignore with a reason.
func suppressed(f *os.File) {
	//lint:ignore errflow close error on read path is unactionable
	f.Close()
}
