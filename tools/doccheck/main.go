// Command doccheck enforces godoc coverage: every exported package-level
// identifier (function, method, type, const, var) in the packages named on
// the command line must carry a doc comment. It is the portable core of
// `make lint` — no revive, no staticcheck, just go/ast — so the check runs
// anywhere the Go toolchain does.
//
// Usage:
//
//	go run ./tools/doccheck internal/sweep internal/fault ...
//
// A grouped declaration (`const (...)`, `var (...)`) is satisfied by a doc
// comment on the group or on the individual specs. Test files are skipped:
// their audience is the test log, not godoc.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package-dir>...")
		os.Exit(2)
	}
	missing := 0
	for _, dir := range os.Args[1:] {
		m, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		missing += len(m)
		for _, id := range m {
			fmt.Printf("%s\n", id)
		}
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) without doc comments\n", missing)
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d package(s) fully documented\n", len(os.Args[1:]))
}

// exportedRecv reports whether the declaration is godoc-visible: a plain
// function, or a method on an exported receiver type. Methods on unexported
// types (interface plumbing like a private Sink implementation) never show
// in godoc and need no doc comment.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true // unrecognized shape: err on the side of requiring docs
		}
	}
}

// checkDir parses every non-test .go file in dir and returns a
// "file:line: identifier" entry per undocumented exported declaration.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
						what := "function"
						if d.Recv != nil {
							what = "method"
						}
						report(d.Pos(), what, d.Name.Name)
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && !groupDoc && s.Doc == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							// A doc comment on the group covers every spec;
							// otherwise each exported spec needs its own.
							if groupDoc || s.Doc != nil || s.Comment != nil {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									report(n.Pos(), "value", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}
