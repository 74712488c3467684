// Command checkdoc is the repository's exported-surface linter. It fails
// when a non-test package lacks a package comment or exports a declaration
// without a doc comment, so the public surface (`go doc drs`, and every
// internal package a contributor lands in) stays fully documented — and
// when an exported package-level func, type, const or var is named by no
// non-test file of the tree it was pointed at, so the surface stays what a
// program calls (DESIGN.md §16). CI runs it next to go vet.
//
// Usage:
//
//	go run ./internal/tools/checkdoc ./...
//
// A doc comment on a grouped declaration (`const (...)`, `var (...)`)
// covers the group; fields inside exported structs are not required to
// carry comments (that is a judgement call, not a lintable rule).
//
// The unused-export check is name-based, not type-checked: any identifier
// of the same name in any non-test file — a call, a selector, a method or
// field of that name — keeps a declaration alive, so it under-reports and
// never over-reports. Methods and struct fields are exempt, and so is a
// package importable from outside the module (not `main`, not under
// internal/): its callers are not in this tree. Code whose job is to be
// called by tests — a reference implementation, a strict decoder a fuzz
// target round-trips — says so in its doc comment:
//
//	//checkdoc:testonly <reason>
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
	tree := &surface{named: make(map[string]bool)}
	for _, dir := range dirs {
		bad += checkDir(fset, dir, tree)
	}
	bad += tree.report(fset)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "checkdoc: %d problem(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir lints one directory's non-test Go files, feeds them to the
// tree-wide unused-export check and reports the number of doc problems.
func checkDir(fset *token.FileSet, dir string, tree *surface) int {
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
		callersInTree := pkg.Name == "main" || strings.Contains("/"+filepath.ToSlash(dir)+"/", "/internal/")
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
			tree.add(f, callersInTree)
		}
	}
	return bad
}

// testOnlyMarker, in a declaration's doc comment, declares that tests are
// the declaration's intended callers; a reason follows it.
const testOnlyMarker = "//checkdoc:testonly "

// export is one exported package-level declaration.
type export struct {
	pos      token.Pos
	kind     string // func, type, const or var
	name     string
	testOnly bool
}

// surface accumulates, over every non-test file of the tree, the exported
// package-level declarations and the set of identifier names used anywhere
// other than as such a declaration's own name.
type surface struct {
	decls []export
	named map[string]bool
}

// add records f's declarations (when callers must be inside the tree) and
// every name f uses.
func (s *surface) add(f *ast.File, callersInTree bool) {
	own := make(map[*ast.Ident]bool)
	declare := func(id *ast.Ident, kind string, docs ...*ast.CommentGroup) {
		own[id] = true
		if !callersInTree || !id.IsExported() {
			return
		}
		e := export{pos: id.Pos(), kind: kind, name: id.Name}
		for _, doc := range docs {
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				e.testOnly = e.testOnly || strings.HasPrefix(c.Text, testOnlyMarker)
			}
		}
		s.decls = append(s.decls, e)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declare(d.Name, "func", d.Doc)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					declare(sp.Name, "type", d.Doc, sp.Doc)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						declare(id, d.Tok.String(), d.Doc, sp.Doc)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !own[id] {
			s.named[id.Name] = true
		}
		return true
	})
}

// report prints the exported declarations no non-test file names and the
// test-only markers that have gone stale, and returns their count.
func (s *surface) report(fset *token.FileSet) int {
	bad := 0
	for _, e := range s.decls {
		switch named := s.named[e.name]; {
		case !named && !e.testOnly:
			fmt.Printf("%s: %s %s is exported but no non-test file names it (delete it, unexport it, or mark it %s<reason>)\n",
				fset.Position(e.pos), e.kind, e.name, testOnlyMarker)
			bad++
		case named && e.testOnly:
			fmt.Printf("%s: %s %s is marked %sbut a non-test file names it\n",
				fset.Position(e.pos), e.kind, e.name, testOnlyMarker)
			bad++
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
