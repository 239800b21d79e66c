// Package astx holds the small AST utilities errflow uses: access-path
// printing, function enumeration and scope matching.
package astx

import (
	"go/ast"
	"strings"
)

// FuncInfo is one analyzable function: a declaration or a function
// literal, with the declaration it is lexically inside (nil for top-level
// literals in var initializers).
type FuncInfo struct {
	Node ast.Node // *ast.FuncDecl or *ast.FuncLit
	Decl *ast.FuncDecl
}

// Body returns the function's body (nil for bodyless declarations).
func (fi FuncInfo) Body() *ast.BlockStmt {
	switch fn := fi.Node.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// Funcs returns every function with a body in the file: declarations and
// all function literals nested inside them, each reported once. Analyzers
// build one CFG per entry, so a literal's statements are analyzed in the
// literal's own graph, not its enclosing function's.
func Funcs(file *ast.File) []FuncInfo {
	var out []FuncInfo
	for _, d := range file.Decls {
		decl, _ := d.(*ast.FuncDecl)
		if decl != nil && decl.Body == nil {
			continue
		}
		root := ast.Node(d)
		if decl != nil {
			out = append(out, FuncInfo{Node: decl, Decl: decl})
			root = decl.Body
		}
		ast.Inspect(root, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, FuncInfo{Node: lit, Decl: decl})
			}
			return true
		})
	}
	return out
}

// PathString renders a stable access-path key for an expression of the
// form ident(.field)* — "tr", "c.tracer", "s.host.mu" — or "" when the
// expression is anything else (calls, indexing, literals). Parens are
// looked through.
func PathString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return PathString(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := PathString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// InScope reports whether the package import path matches one of the
// suffix patterns ("internal/sim") or, for the special pattern "cmd/*",
// contains a cmd path element.
func InScope(pkgPath string, patterns []string) bool {
	for _, pat := range patterns {
		if pat == "cmd/*" {
			if strings.HasPrefix(pkgPath, "cmd/") || strings.Contains(pkgPath, "/cmd/") {
				return true
			}
			continue
		}
		if pkgPath == pat || strings.HasSuffix(pkgPath, "/"+pat) {
			return true
		}
	}
	return false
}
