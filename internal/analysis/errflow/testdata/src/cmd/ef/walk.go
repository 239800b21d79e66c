package main

import "os"

// How the statements after a store decide it: an if/else or a switch
// with a default overwrites only when every branch does; without the else
// or the default, the value can go through.

// bothBranchesOverwrite: every path through the if/else overwrites err.
func bothBranchesOverwrite(f *os.File, c bool) {
	err := flush() // want `err assigned here is dead`
	if c {
		err = parse(f)
	} else {
		err = flush()
	}
	sink(err)
}

// everyClauseOverwrites: a switch with a default leaves no path that
// keeps err; returning counts as overwriting.
func everyClauseOverwrites(f *os.File, n int) {
	err := flush() // want `err assigned here is dead`
	switch n {
	case 0:
		err = parse(f)
	case 1:
		return
	default:
		err = flush()
	}
	sink(err)
}

// loopBodyDecl: err is declared afresh in every iteration, so the last
// store dies at the end of the loop body.
func loopBodyDecl(fs []*os.File) {
	for _, f := range fs {
		var err error
		err = parse(f)
		sink(err)
		err = f.Close() // want `err assigned here is dead`
	}
}

// ifWithoutElse: the path that skips the if reaches the read.
func ifWithoutElse(f *os.File, c bool) {
	err := flush()
	if c {
		err = parse(f)
	}
	sink(err)
}

// switchWithoutDefault: a value no case matches skips every overwrite.
func switchWithoutDefault(f *os.File, n int) {
	err := flush()
	switch n {
	case 0:
		err = parse(f)
	case 1:
		err = flush()
	}
	sink(err)
}

// breakBetweenStores: the break leaves the loop holding the first store,
// which the read after the loop sees.
func breakBetweenStores(fs []*os.File) {
	var err error
	for _, f := range fs {
		err = parse(f)
		if f == nil {
			break
		}
		err = f.Close()
	}
	sink(err)
}

func each(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// closureStore: the literal's store is read after each returns.
func closureStore(fs []*os.File) error {
	var err error
	each(len(fs), func(i int) { err = parse(fs[i]) })
	return err
}

// addressTaken: a pointer to err lets other code read it.
func addressTaken(f *os.File) {
	var err error
	p := &err
	err = parse(f)
	sink(*p)
}
