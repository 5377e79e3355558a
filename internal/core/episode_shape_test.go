package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestEpisodeShape keeps the reconfiguration episode in one piece: one
// function in this package hands a plan to the AQE controller, one
// calls the solver, and System.Run stays the outline of a tick. A
// second caller of either is a second way to begin, which is what
// episode.go replaced.
func TestEpisodeShape(t *testing.T) {
	const maxRun = 60
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	callers := map[string][]string{"ctl.Begin": nil, "s.solve": nil}
	runLines := 0
	for _, f := range pkgs["core"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "Run" && fn.Recv != nil {
				runLines = fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			}
			found := map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				// s.ctl.Begin and s.solve, as calls or as values: a
				// function that copies s.solve out calls it all the same.
				if sel, ok := n.(*ast.SelectorExpr); ok {
					switch x := sel.X.(type) {
					case *ast.SelectorExpr:
						if x.Sel.Name == "ctl" && sel.Sel.Name == "Begin" {
							found["ctl.Begin"] = true
						}
					case *ast.Ident:
						if x.Name == "s" && sel.Sel.Name == "solve" {
							found["s.solve"] = true
						}
					}
				}
				return true
			})
			for what := range found {
				callers[what] = append(callers[what], fn.Name.Name)
			}
		}
	}
	for what, fns := range callers {
		if len(fns) != 1 {
			t.Errorf("%s is used by %d functions %v, want exactly one", what, len(fns), fns)
		}
	}
	if runLines == 0 || runLines > maxRun {
		t.Errorf("System.Run is %d lines, want 1..%d", runLines, maxRun)
	}
}
