// Command checkdoc lints doc comments. It fails when a non-test package
// lacks a package comment or exports a declaration without a doc comment,
// so the public surface (`go doc drs`, and every internal package a
// contributor lands in) stays fully documented. CI runs it next to go vet.
//
// Usage:
//
//	go run ./internal/tools/checkdoc ./...
//
// A doc comment on a grouped declaration (`const (...)`, `var (...)`)
// covers the group; fields inside exported structs are not required to
// carry comments (that is a judgement call, not a lintable rule).
//
// Whether an exported name has a caller is not checkdoc's question:
// TestExportedSurface, in the root package, type-checks both modules and
// holds every level of the surface to DESIGN.md §16's rule.
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
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs []string
	for _, arg := range args {
		if strings.HasSuffix(arg, "/...") {
			root := strings.TrimSuffix(arg, "/...")
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				// Prune hidden directories (.git, .github) — but never the
				// walk root itself, whose name is "." when linting "./...";
				// skipping it would silently exempt the top-level package.
				if path != root && strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				dirs = append(dirs, path)
				return nil
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "checkdoc:", err)
				os.Exit(2)
			}
		} else {
			dirs = append(dirs, arg)
		}
	}
	bad := 0
	fset := token.NewFileSet()
	for _, dir := range dirs {
		bad += checkDir(fset, dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "checkdoc: %d problem(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir lints one directory's non-test Go files and reports the number
// of doc problems.
func checkDir(fset *token.FileSet, dir string) int {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		// Directories without Go files are fine; real syntax errors will
		// fail the build step anyway.
		return 0
	}
	bad := 0
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Printf("%s: package %s has no package comment\n", dir, pkg.Name)
			bad++
		}
		for _, f := range pkg.Files {
			bad += checkFile(fset, f)
		}
	}
	return bad
}

// checkFile reports exported declarations without doc comments.
func checkFile(fset *token.FileSet, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, what string) {
		fmt.Printf("%s: %s is exported but has no doc comment\n",
			fset.Position(pos), what)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			// Methods count when their receiver type is exported.
			if d.Recv != nil && !receiverExported(d.Recv) {
				continue
			}
			report(d.Pos(), "func "+d.Name.Name)
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the group covers every spec in it.
					if d.Doc != nil {
						continue
					}
					for _, id := range s.Names {
						if id.IsExported() && s.Doc == nil && s.Comment == nil {
							report(id.Pos(), d.Tok.String()+" "+id.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// receiverExported reports whether a method receiver names an exported
// type (pointer receivers unwrapped).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch e := t.(type) {
	case *ast.Ident:
		return e.IsExported()
	case *ast.IndexExpr: // generic receiver
		if id, ok := e.X.(*ast.Ident); ok {
			return id.IsExported()
		}
	}
	return false
}
