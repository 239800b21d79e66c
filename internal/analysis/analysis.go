// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs: an
// Analyzer runs over one type-checked package at a time and reports
// position-stamped diagnostics.
//
// The framework exists because the simulator's performance and correctness
// properties — deterministic iteration, an allocation-free scheduling hot
// path, exhaustive handling of protocol enums — are invariants of the code
// itself, not of any one test input. cmd/burstlint wires the analyzers in
// this tree (detlint, exhaustive, errflow) into one multichecker; see
// DESIGN.md "Verification & static analysis".
//
// Suppression: a diagnostic is suppressed by a comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line immediately above it. The reason is
// mandatory — an ignore without one does not suppress. A directive that
// names an analyzer the run does not include is reported itself, under
// the name lint: it suppresses nothing, so a misspelling or a deleted
// analyzer's leftover would otherwise go unseen.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer describes one static check over one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check over one package, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass is the interface between one Analyzer run and one loaded package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the loaded packages and returns the
// surviving (non-suppressed) diagnostics sorted by position. A package
// that failed to load contributes its load errors as diagnostics and is
// not analyzed — its ASTs and type information may be partial, and every
// analyzer here assumes both are whole.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			out = append(out, pkg.Errors...)
			continue
		}
		ign, unknown := ignores(pkg, analyzers)
		out = append(out, unknown...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				if !ign.suppressed(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignoreKey locates one //lint:ignore directive: which analyzer it silences
// and the line it sits on (it covers that line and the next).
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet map[ignoreKey]bool

// ignores collects a package's //lint:ignore directives, and reports as
// diagnostics those that name none of the analyzers.
func ignores(pkg *Package, analyzers []*Analyzer) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var unknown []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // reason is mandatory
				}
				pos := pkg.Fset.Position(c.Pos())
				if !slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.Name == fields[0] }) {
					unknown = append(unknown, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q; it suppresses nothing", fields[0]),
					})
					continue
				}
				set[ignoreKey{pos.Filename, pos.Line, fields[0]}] = true
			}
		}
	}
	return set, unknown
}

// suppressed reports whether a directive on the diagnostic's line or the
// line above covers it.
func (s ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	return s[ignoreKey{pos.Filename, pos.Line, analyzer}] ||
		s[ignoreKey{pos.Filename, pos.Line - 1, analyzer}]
}
