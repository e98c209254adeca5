package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// unreachedAllow lists the exported identifiers under internal/ that only
// tests reach but must stay exported, because tests in other packages use
// them and a _test.go file cannot serve another package. Keys are the path
// below internal/ and the name, a method as Type.Method; values say why.
var unreachedAllow = map[string]string{
	"exec.NewValues":              "exec.Values is an operator, and operators live in exec: progressBase is unexported",
	"datagen.NewAdversarialTwins": "Theorem 1's twins, used by the stats, datagen and evalmatrix tests",
	"session.Manager.SubmitPlan":  "the plan-level seam of the fault and session tests",
}

// lintUnreached type-checks every non-test package of the module rooted at
// root and reports each exported identifier declared under internal/ that
// no non-test file names outside its own declaration. A method counts as
// reached when its type implements an interface that declares it (the call
// is dynamic), and a type is not reached by its own methods' receivers.
// An allow-list entry that names no such identifier is reported too, so the
// list cannot go stale.
func lintUnreached(root string, allow map[string]string) ([]string, error) {
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(modBytes), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	l := &loader{
		root: root, module: module, fset: token.NewFileSet(),
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		decl: map[types.Object]ast.Node{}, recv: map[*ast.Ident]bool{},
	}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		_, err = l.Import(path.Join(module, filepath.ToSlash(rel)))
		return err
	})
	if err != nil {
		return nil, err
	}

	reached := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		if d := l.decl[obj]; l.recv[id] || d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
			continue
		}
		reached[obj] = true
	}
	ifaces := l.interfaces()
	var findings []string
	allowed := map[string]bool{}
	report := func(obj types.Object, key string) {
		if reached[obj] {
			return
		}
		if allow[key] != "" {
			allowed[key] = true
			return
		}
		p := l.fset.Position(obj.Pos())
		rel, _ := filepath.Rel(root, p.Filename)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s is named only by tests", rel, p.Line, key))
	}
	for pkgPath, pkg := range l.pkgs {
		sub, ok := strings.CutPrefix(pkgPath, module+"/internal/")
		if !ok || pkg == nil || sub == "coretest" { // coretest is test support by design
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			report(obj, sub+"."+name)
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !ok || !isType {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !implementsWith(named, m.Name(), ifaces) {
					report(m, sub+"."+name+"."+m.Name())
				}
			}
		}
	}
	for key := range allow {
		if !allowed[key] {
			findings = append(findings, fmt.Sprintf("allow-list entry %s names no exported identifier that only tests reach", key))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implementsWith reports whether T or *T implements an interface that
// declares the method name.
func implementsWith(t *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, name); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// loader type-checks the module's non-test packages from source, recording
// in info every identifier they use, and the standard library through the
// source importer.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	info         *types.Info
	decl         map[types.Object]ast.Node // each declared object's own declaration
	recv         map[*ast.Ident]bool       // receiver type names
}

// Import implements types.Importer. A module directory with no non-test Go
// file yields a nil package.
func (l *loader) Import(p string) (*types.Package, error) {
	rel, inModule := strings.CutPrefix(p, l.module)
	if !inModule || rel != "" && rel[0] != '/' {
		return l.std.Import(p)
	}
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[p] = nil
		return nil, nil
	}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	for _, f := range files {
		l.declarations(f)
	}
	return pkg, nil
}

// declarations records the extent of each top-level declaration in f and
// the receiver type names of its methods.
func (l *loader) declarations(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			l.decl[l.info.Defs[d.Name]] = d
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.recv[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					l.decl[l.info.Defs[s.Name]] = s
				case *ast.ValueSpec:
					for _, n := range s.Names {
						l.decl[l.info.Defs[n]] = s
					}
				}
			}
		}
	}
}

// dynamicInterfaces are error, which belongs to no package, and the
// interfaces errors.Is, As and Unwrap assert an error to without naming
// them.
const dynamicInterfaces = `package dynamic
type Error interface { error }
type Is interface { error; Is(error) bool }
type As interface { error; As(any) bool }
type Unwrap interface { error; Unwrap() error }
`

// interfaces returns every named interface type of the loaded packages and
// of the packages they import, and the dynamicInterfaces.
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range l.pkgs {
		visit(pkg)
	}
	f, _ := parser.ParseFile(l.fset, "dynamic.go", dynamicInterfaces, 0)
	pkg, _ := new(types.Config).Check("dynamic", l.fset, []*ast.File{f}, nil)
	visit(pkg)
	return out
}
