package drs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testOnlyMarker, in a declaration's doc comment, says that tests are the
// declaration's intended callers; a reason follows it (DESIGN.md §16).
const testOnlyMarker = "//checkdoc:testonly "

// rootModule is this module's path; the benchmark module is the other.
const rootModule = "github.com/drs-repro/drs"

// TestExportedSurface holds both modules (this one and benchmark/) to
// DESIGN.md §16's rule at every level, type-checked over their non-test
// files. It fails on
//
//   - an exported package-level name no non-test file uses;
//   - an exported method no non-test file calls that implements no
//     interface method;
//   - a method of an exported interface that no non-test file calls,
//     either through the interface or as a concrete method of that name
//     whose receiver implements it; a call inside an implementation of
//     the same method (a delegator) does not count;
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

// TestDocComments holds every package of both modules to the doc rules,
// over the non-test files the surface audit reads plus those a build tag
// keeps out of this build (obs/race_on.go): a package has a package
// comment; an exported func, type, const or var has a doc comment, a
// group's doc covering its specs; and so does an exported method of an
// exported receiver. Struct fields are exempt.
func TestDocComments(t *testing.T) {
	fset := token.NewFileSet()
	var problems []string
	report := func(pos token.Pos, format string, args ...any) {
		problems = append(problems, fset.Position(pos).String()+": "+fmt.Sprintf(format, args...))
	}
	ours, _ := listModules(t)
	for _, lp := range ours {
		byPackage := make(map[string][]*ast.File)
		for _, name := range slices.Concat(lp.GoFiles, lp.IgnoredGoFiles) {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			byPackage[f.Name.Name] = append(byPackage[f.Name.Name], f)
		}
		for pkg, files := range byPackage {
			documented := false
			for _, f := range files {
				documented = documented || f.Doc != nil
				checkDocs(f, report)
			}
			if !documented {
				report(files[0].Package, "package %s has no package comment", pkg)
			}
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// checkDocs reports f's exported declarations that have no doc comment.
func checkDocs(f *ast.File, report func(token.Pos, string, ...any)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && (d.Recv == nil || receiverExported(d.Recv)) {
				report(d.Pos(), "func %s is exported but has no doc comment", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type %s is exported but has no doc comment", sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						if id.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							report(id.Pos(), "%s %s is exported but has no doc comment", d.Tok, id.Name)
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver names an exported
// type, pointer and type parameters unwrapped.
func receiverExported(recv *ast.FieldList) bool {
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// TestFlagsSet holds every flag a main package of this module defines to
// the surface rule: something sets it. A flag counts as set when a test
// file of its package passes "-name", or when a logical line of
// scripts/*.sh, the Makefile or .github/workflows/*.yml invokes its binary
// with -name. A binary's subcommands share its flags' attribution. The
// benchmark module's flags are its command's contract with BENCHMARK.json
// and are not held here.
func TestFlagsSet(t *testing.T) {
	a := newSurfaceAudit(t)
	lines := invocationLines(t)
	seen := make(map[string]bool)
	var problems []string
	for _, f := range a.flags {
		pair := f.bin + " -" + f.name
		if seen[pair] {
			continue
		}
		seen[pair] = true
		if !f.setByTest(t) && !setByInvocation(lines, f) {
			problems = append(problems, fmt.Sprintf("%s: flag %s is set by no test, script, Makefile line or CI step (test its effect, or delete it)",
				f.pos, pair))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// definedFlag is one flag definition in a main package of this module.
type definedFlag struct {
	pos   token.Position
	bin   string // the binary: the main package's directory name
	name  string
	tests []string // the package's test files
}

// setByTest reports whether one of the package's test files passes the
// flag.
func (f definedFlag) setByTest(t *testing.T) bool {
	for _, path := range f.tests {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(`"-`+f.name+`"`)) {
			return true
		}
	}
	return false
}

// invocationLines reads the scripts, the Makefile and the CI workflows as
// logical lines: backslash continuations joined, comment lines dropped.
func invocationLines(t *testing.T) []string {
	var paths []string
	for _, pattern := range []string{"scripts/*.sh", "Makefile", ".github/workflows/*.yml"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	var lines []string
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var cur strings.Builder
		for sc := bufio.NewScanner(bytes.NewReader(b)); sc.Scan(); {
			line := sc.Text()
			if cur.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			if joined, ok := strings.CutSuffix(line, `\`); ok {
				cur.WriteString(joined + " ")
				continue
			}
			cur.WriteString(line)
			lines = append(lines, cur.String())
			cur.Reset()
		}
	}
	return lines
}

// setByInvocation reports whether a line runs f's binary with the flag.
func setByInvocation(lines []string, f definedFlag) bool {
	for _, line := range lines {
		fields := strings.Fields(line)
		for i, field := range fields {
			if bin := strings.Trim(field, `"'`); bin != f.bin && !strings.HasSuffix(bin, "/"+f.bin) {
				continue
			}
			for _, arg := range fields[i+1:] {
				if strings.HasPrefix(arg, "--") {
					arg = arg[1:]
				}
				if arg == "-"+f.name || strings.HasPrefix(arg, "-"+f.name+"=") {
					return true
				}
			}
		}
	}
	return false
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
	case "interface method":
		return "non-test call outside its own implementations"
	case "field":
		return "non-test set outside package " + d.obj.Pkg().Name()
	}
	return "non-test use"
}

// surfaceAudit is the type-checked view of both modules' non-test files.
type surfaceAudit struct {
	decls      []surfaceDecl
	flags      []definedFlag
	uses       map[types.Object]bool // referenced by a non-test file
	setOutside map[types.Object]bool // fields set outside their package
	ifaces     map[string][]*types.Interface
	calls      map[string][]methodCall // method references by method name
}

// methodCall is a non-test reference to a method, and the method whose
// body makes it (nil outside a method).
type methodCall struct {
	callee, caller *types.Func
}

func (a *surfaceAudit) used(d surfaceDecl) bool {
	switch d.kind {
	case "field":
		return a.setOutside[d.obj]
	case "method":
		return a.uses[d.obj] || a.implementsInterface(d.obj.(*types.Func))
	case "interface method":
		return a.calledThrough(d.obj.(*types.Func))
	}
	return a.uses[d.obj]
}

// calledThrough reports whether a non-test file calls the interface method
// m, through the interface or as a concrete method of m's name whose
// receiver implements it, outside every implementation of m.
func (a *surfaceAudit) calledThrough(m *types.Func) bool {
	iface := recvType(m).Underlying().(*types.Interface)
	for _, c := range a.calls[m.Name()] {
		if c.caller != nil && c.caller.Name() == m.Name() && implements(recvType(c.caller), iface) {
			continue
		}
		if c.callee == m || !types.IsInterface(recvType(c.callee)) && implements(recvType(c.callee), iface) {
			return true
		}
	}
	return false
}

// recvType is a method's receiver type, a pointer unwrapped.
func recvType(m *types.Func) types.Type {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		return p.Elem()
	}
	return recv
}

// implements reports whether t or *t satisfies iface.
func implements(t types.Type, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// implementsInterface reports whether m's receiver type satisfies some
// interface that has a method of m's name, so a call through that
// interface may reach m.
func (a *surfaceAudit) implementsInterface(m *types.Func) bool {
	for _, iface := range a.ifaces[m.Name()] {
		if implements(recvType(m), iface) {
			return true
		}
	}
	return false
}

// listedPackage is the part of `go list -json` the audit reads.
type listedPackage struct {
	ImportPath     string
	Dir            string
	Name           string
	GoFiles        []string
	IgnoredGoFiles []string
	TestGoFiles    []string
	XTestGoFiles   []string
	Export         string
	Standard       bool
	Module         *struct{ Path string }
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

// listModules lists both modules' packages, each module's dependencies
// first, and the standard library's export data by import path.
func listModules(t *testing.T) (ours []listedPackage, exports map[string]string) {
	exports = make(map[string]string)
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
	return ours, exports
}

// newSurfaceAudit type-checks both modules from source, the standard
// library from its export data, and indexes declarations, uses, field
// sets, interfaces and this module's flags.
func newSurfaceAudit(t *testing.T) *surfaceAudit {
	fset := token.NewFileSet()
	ours, exports := listModules(t)
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	a := &surfaceAudit{
		uses:       make(map[types.Object]bool),
		setOutside: make(map[types.Object]bool),
		ifaces:     make(map[string][]*types.Interface),
		calls:      make(map[string][]methodCall),
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
			if lp.Name == "main" && lp.Module.Path == rootModule {
				a.flags = append(a.flags, definedFlags(fset, info, f, lp)...)
			}
		}
	}
	a.collectInterfaces(checked)
	return a
}

// definedFlags lists the flags f defines with a constant name: the name
// argument of a flag-package call that also takes a usage string.
func definedFlags(fset *token.FileSet, info *types.Info, f *ast.File, lp listedPackage) []definedFlag {
	var tests []string
	for _, name := range slices.Concat(lp.TestGoFiles, lp.XTestGoFiles) {
		tests = append(tests, filepath.Join(lp.Dir, name))
	}
	var flags []definedFlag
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
			return true
		}
		params := fn.Type().(*types.Signature).Params()
		nameAt, usage := -1, false
		for i := 0; i < params.Len(); i++ {
			switch params.At(i).Name() {
			case "name":
				nameAt = i
			case "usage":
				usage = true
			}
		}
		if nameAt < 0 || !usage {
			return true
		}
		if tv := info.Types[call.Args[nameAt]]; tv.Value != nil && tv.Value.Kind() == constant.String {
			flags = append(flags, definedFlag{pos: fset.Position(call.Args[nameAt].Pos()),
				bin: filepath.Base(lp.Dir), name: constant.StringVal(tv.Value), tests: tests})
		}
		return true
	})
	return flags
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
						declareInterfaceMethods(info, sp, pkgName, add)
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

// declareInterfaceMethods records the exported methods an exported
// interface declares itself (an embedded interface's are declared with it).
func declareInterfaceMethods(info *types.Info, sp *ast.TypeSpec, pkgName string,
	add func(token.Pos, string, string, types.Object, ...*ast.CommentGroup)) {
	it, ok := sp.Type.(*ast.InterfaceType)
	if !ok {
		return
	}
	for _, fld := range it.Methods.List {
		for _, id := range fld.Names {
			if id.IsExported() {
				add(id.Pos(), "interface method", pkgName+"."+sp.Name.Name+"."+id.Name, info.Defs[id], fld.Doc)
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

// index records every object f's code references, every method it
// references with the method whose body does so, and every field it sets
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
	for _, decl := range f.Decls {
		var caller *types.Func
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
			caller = info.Defs[fd.Name].(*types.Func)
			// A method's receiver names its type without using it.
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					receiver[id] = true
				}
				return true
			})
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				obj := info.Uses[x]
				if obj == nil || receiver[x] {
					break
				}
				a.uses[origin(obj)] = true
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					a.calls[fn.Name()] = append(a.calls[fn.Name()], methodCall{callee: fn.Origin(), caller: caller})
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
