// Package astx holds the small AST utilities the analyzers share:
// access-path printing (errflow) and scope matching (errflow, detlint).
package astx

import (
	"go/ast"
	"strings"
)

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
