package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestRouterShape keeps router.go from quietly regrowing into one
// function that re-decides per tick what a plan fixes at compile:
// routeTick stays an outline of calls, and no function in the file
// outgrows a screenful or two.
func TestRouterShape(t *testing.T) {
	const maxFunc, maxRouteTick = 150, 100
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "router.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
		limit := maxFunc
		if fn.Name.Name == "routeTick" {
			seen, limit = true, maxRouteTick
		}
		if lines > limit {
			t.Errorf("router.go: %s is %d lines, limit %d", fn.Name.Name, lines, limit)
		}
	}
	if !seen {
		t.Error("router.go: routeTick not found")
	}
}
