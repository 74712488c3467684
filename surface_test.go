package drs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyMarker, in a declaration's doc comment, says that tests are the
// declaration's intended callers; a reason follows it (DESIGN.md §16).
const testOnlyMarker = "//checkdoc:testonly "

// TestExportedSurface holds both modules (this one and benchmark/) to
// DESIGN.md §16's rule at every level, type-checked over their non-test
// files. It fails on
//
//   - an exported package-level name no non-test file uses;
//   - an exported method no non-test file calls that implements no
//     interface method;
//   - a field of an exported …Config or …Options struct that no non-test
//     file outside the struct's own package sets,
//
// unless the declaration's doc comment carries the test-only marker and a
// reason; and it fails on a marker on a declaration a non-test file does
// use. Package drs's own names are exempt: its callers are outside the
// tree, and testdata/facade.golden pins them instead (TestFacadeSurface).
func TestExportedSurface(t *testing.T) {
	a := newSurfaceAudit(t)
	var problems []string
	for _, d := range a.decls {
		used := a.used(d)
		switch {
		case d.testOnly && d.reason == "":
			problems = append(problems, fmt.Sprintf("%s carries %sbut no reason", d, testOnlyMarker))
		case !used && !d.testOnly:
			problems = append(problems, fmt.Sprintf("%s has no %s (delete it, unexport it, or mark it %s<reason>)",
				d, d.use(), testOnlyMarker))
		case used && d.testOnly:
			problems = append(problems, fmt.Sprintf("%s is marked %sbut has a %s", d, testOnlyMarker, d.use()))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// surfaceDecl is one declaration the rule applies to.
type surfaceDecl struct {
	pos      token.Position
	kind     string // func, type, const, var, method or field
	name     string // qualified: pkg.Name, pkg.Type.Method, pkg.Config.Field
	obj      types.Object
	testOnly bool
	reason   string // what follows the test-only marker
}

func (d surfaceDecl) String() string {
	return d.pos.String() + ": " + d.kind + " " + d.name
}

// use names what keeps d alive.
func (d surfaceDecl) use() string {
	switch d.kind {
	case "method":
		return "non-test caller or interface"
	case "field":
		return "non-test set outside package " + d.obj.Pkg().Name()
	}
	return "non-test use"
}

// surfaceAudit is the type-checked view of both modules' non-test files.
type surfaceAudit struct {
	decls      []surfaceDecl
	uses       map[types.Object]bool // referenced by a non-test file
	setOutside map[types.Object]bool // fields set outside their package
	ifaces     map[string][]*types.Interface
}

func (a *surfaceAudit) used(d surfaceDecl) bool {
	switch d.kind {
	case "field":
		return a.setOutside[d.obj]
	case "method":
		return a.uses[d.obj] || a.implementsInterface(d.obj.(*types.Func))
	}
	return a.uses[d.obj]
}

// implementsInterface reports whether m's receiver type satisfies some
// interface that has a method of m's name, so a call through that
// interface may reach m.
func (a *surfaceAudit) implementsInterface(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range a.ifaces[m.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// listedPackage is the part of `go list -json` the audit reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists dir's packages and their dependencies, deps first, with
// compiled export data for each.
func goList(t *testing.T, dir string) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// newSurfaceAudit type-checks both modules from source, the standard
// library from its export data, and indexes declarations, uses, field
// sets and interfaces.
func newSurfaceAudit(t *testing.T) *surfaceAudit {
	fset := token.NewFileSet()
	exports := make(map[string]string)
	var ours []listedPackage
	seen := make(map[string]bool)
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range goList(t, dir) {
			switch {
			case seen[p.ImportPath]:
			case p.Standard:
				exports[p.ImportPath] = p.Export
			default:
				ours = append(ours, p)
			}
			seen[p.ImportPath] = true
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	a := &surfaceAudit{
		uses:       make(map[types.Object]bool),
		setOutside: make(map[types.Object]bool),
		ifaces:     make(map[string][]*types.Interface),
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	for _, lp := range ours {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		facade := lp.Name != "main" && !strings.Contains(lp.ImportPath+"/", "/internal/")
		for _, f := range files {
			a.declare(fset, info, f, facade)
			a.index(info, pkg, f)
		}
	}
	a.collectInterfaces(checked)
	return a
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare records f's declarations the rule applies to. A facade package's
// package-level names are exempt.
func (a *surfaceAudit) declare(fset *token.FileSet, info *types.Info, f *ast.File, facade bool) {
	add := func(pos token.Pos, kind, name string, obj types.Object, docs ...*ast.CommentGroup) {
		d := surfaceDecl{pos: fset.Position(pos), kind: kind, name: name, obj: obj}
		for _, doc := range docs {
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				if reason, ok := strings.CutPrefix(c.Text, testOnlyMarker); ok {
					d.testOnly, d.reason = true, strings.TrimSpace(reason)
				}
			}
		}
		a.decls = append(a.decls, d)
	}
	pkgName := f.Name.Name
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			fn := info.Defs[d.Name].(*types.Func)
			if d.Recv == nil {
				if !facade {
					add(d.Name.Pos(), "func", pkgName+"."+d.Name.Name, fn, d.Doc)
				}
				continue
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named := recv.(*types.Named)
			add(d.Name.Pos(), "method", pkgName+"."+named.Obj().Name()+"."+d.Name.Name, fn, d.Doc)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if !sp.Name.IsExported() {
						continue
					}
					obj := info.Defs[sp.Name]
					if !facade {
						add(sp.Name.Pos(), "type", pkgName+"."+sp.Name.Name, obj, d.Doc, sp.Doc)
					}
					declareFields(sp, obj, pkgName, add)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						if id.IsExported() && !facade {
							add(id.Pos(), d.Tok.String(), pkgName+"."+id.Name, info.Defs[id], d.Doc, sp.Doc)
						}
					}
				}
			}
		}
	}
}

// declareFields records the fields of an exported …Config or …Options
// struct.
func declareFields(sp *ast.TypeSpec, obj types.Object, pkgName string,
	add func(token.Pos, string, string, types.Object, ...*ast.CommentGroup)) {
	if !strings.HasSuffix(sp.Name.Name, "Config") && !strings.HasSuffix(sp.Name.Name, "Options") {
		return
	}
	st, ok := sp.Type.(*ast.StructType)
	if !ok || sp.Assign.IsValid() {
		return
	}
	fields := obj.Type().Underlying().(*types.Struct)
	i := 0
	for _, fld := range st.Fields.List {
		ids := fld.Names
		if len(ids) == 0 { // embedded: the field is named by its type
			ids = []*ast.Ident{nil}
		}
		for _, id := range ids {
			v := fields.Field(i)
			i++
			if !v.Exported() {
				continue
			}
			pos := fld.Pos()
			if id != nil {
				pos = id.Pos()
			}
			add(pos, "field", pkgName+"."+sp.Name.Name+"."+v.Name(), v, fld.Doc)
		}
	}
}

// index records every object f's code references and every field it sets
// outside the field's own package: a composite-literal element, the left
// side of an assignment or ++/--, or an address taken (a flag binding).
func (a *surfaceAudit) index(info *types.Info, pkg *types.Package, f *ast.File) {
	set := func(v types.Object) {
		if v, ok := v.(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
			a.setOutside[v.Origin()] = true
		}
	}
	var setExpr func(ast.Expr)
	setExpr = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				set(sel.Obj())
			}
		case *ast.IndexExpr:
			setExpr(x.X)
		}
	}
	receiver := make(map[*ast.Ident]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			// A method's receiver names its type without using it.
			if x.Recv != nil {
				ast.Inspect(x.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receiver[id] = true
					}
					return true
				})
			}
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && !receiver[x] {
				a.uses[origin(obj)] = true
			}
		case *ast.CompositeLit:
			st, ok := info.Types[x].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					set(info.Uses[kv.Key.(*ast.Ident)])
				} else {
					set(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				setExpr(lhs)
			}
		case *ast.IncDecStmt:
			setExpr(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				setExpr(x.X)
			}
		case *ast.InterfaceType:
			a.addInterface(info.Types[x].Type)
		}
		return true
	})
}

// origin maps an object of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collectInterfaces indexes, by method name, every named interface of the
// checked packages and everything they import, and error; index adds the
// interface literals.
func (a *surfaceAudit) collectInterfaces(checked map[string]*types.Package) {
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			a.addInterface(tn.Type())
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	a.addInterface(types.Universe.Lookup("error").Type())
}

// addInterface indexes t's methods by name when t is a method-set
// interface (a constraint with type terms has no caller to reach).
func (a *surfaceAudit) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || !iface.IsMethodSet() {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		a.ifaces[name] = append(a.ifaces[name], iface)
	}
}
