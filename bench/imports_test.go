package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// The benchmark may not be edited by a change that claims a gain, so it
// must not depend on anything such a change is likely to touch: only the
// facade and the packages that define the surfaces it loads. The internal
// algorithm packages (core, schedule, heft, ceg, greenheft) and the
// facade's deprecated wrappers are free to be merged, renamed and deleted.
var allowedImports = map[string]bool{
	"repro":                  true,
	"repro/internal/wire":    true,
	"repro/internal/server":  true,
	"repro/internal/tenancy": true,
	"repro/internal/power":   true,
	"repro/internal/obs":     true,
}

func TestImportsStayOnTheAllowlist(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "repro") && !allowedImports[path] {
					t.Errorf("%s imports %s, which is not on the allowlist", name, path)
				}
			}
		}
	}
}

func TestNoDeprecatedFacadeFunction(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseDir(fset, "..", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	deprecated := make(map[string]bool)
	for _, pkg := range facade {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.Contains(fn.Doc.Text(), "Deprecated:") {
					deprecated[fn.Name.Name] = true
				}
			}
		}
	}
	if _, ok := facade["cawosched"]; !ok {
		t.Fatal("did not find the facade package; the test is looking in the wrong place")
	}
	own, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range own {
		for name, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "cawosched" && deprecated[sel.Sel.Name] {
					t.Errorf("%s uses deprecated cawosched.%s", name, sel.Sel.Name)
				}
				return true
			})
		}
	}
}
