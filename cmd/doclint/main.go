// Command doclint is the documentation gate. It fails CI on three kinds of
// drift that ordinary tests cannot see:
//
//   - Undocumented exported symbols in the packages whose godoc is part of
//     the repo's contract (internal/core, internal/ledger, internal/stats by
//     default): every exported type, function, method on an exported
//     receiver, constant and variable must carry a doc comment, either its
//     own or its declaration group's.
//
//   - An estimator missing from the handbook: ESTIMATORS.md must name every
//     estimator core.RegisteredEstimators() ships (each name in backticks,
//     the way the handbook's tables render them). Registering a new
//     estimator without documenting it — or renaming one and leaving the
//     handbook stale — fails the build.
//
//   - Production code that only tests reach: an exported identifier under
//     internal/ that no non-test file of the module names outside its own
//     declaration (go/types, so a method is told apart from another of the
//     same name). Such code belongs in a _test.go file beside the tests that
//     need it, or goes with them. The coretest package and the
//     unreachedAllow list, each entry with its reason, are exempt.
//
// Usage, from the module root:
//
//	go run ./cmd/doclint [-md ESTIMATORS.md] [pkgdir ...]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"

	"sqlprogress/internal/core"
)

// defaultPackages are the directories linted when none are given: the
// progress-estimation core, the concurrent accounting ledger and the
// statistics subsystem — the packages whose invariants live in prose.
var defaultPackages = []string{"internal/core", "internal/ledger", "internal/stats"}

// lintPackage parses every non-test file in dir and reports exported
// symbols that carry no doc comment. A declaration group's comment covers
// its members, matching the lint's purpose (the symbol is explained
// somewhere a reader of the source will find).
func lintPackage(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s is undocumented", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if d.Recv != nil {
						base, exported := receiverBase(d.Recv)
						if !exported {
							continue
						}
						report(d.Name.Pos(), "method", base+"."+d.Name.Name)
					} else {
						report(d.Name.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
								report(s.Name.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							if d.Doc != nil || s.Doc != nil {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									report(n.Pos(), kindOf(d.Tok), n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return findings, nil
}

// receiverBase returns a method receiver's base type name and whether it is
// exported.
func receiverBase(recv *ast.FieldList) (string, bool) {
	if len(recv.List) == 0 {
		return "", false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, id.IsExported()
	}
	return "", false
}

// kindOf names a GenDecl token for a finding.
func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "constant"
	}
	return "variable"
}

// lintEstimatorDocs checks that the handbook names every registered
// estimator. Names must appear in backticks — the literal way the
// handbook's tables and prose render estimator names — so an estimator
// mentioned only in passing prose cannot accidentally satisfy the check.
func lintEstimatorDocs(mdPath string) ([]string, error) {
	buf, err := os.ReadFile(mdPath)
	if err != nil {
		return nil, err
	}
	text := string(buf)
	var findings []string
	for _, e := range core.RegisteredEstimators() {
		if !strings.Contains(text, "`"+e.Name()+"`") {
			findings = append(findings, fmt.Sprintf("%s: registered estimator `%s` is not documented", mdPath, e.Name()))
		}
	}
	return findings, nil
}

func main() {
	md := flag.String("md", "ESTIMATORS.md", "estimator handbook to check against core.RegisteredEstimators()")
	flag.Parse()

	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = defaultPackages
	}
	var findings []string
	for _, dir := range pkgs {
		fs, err := lintPackage(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(1)
		}
		findings = append(findings, fs...)
	}
	fs, err := lintEstimatorDocs(*md)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	findings = append(findings, fs...)
	fs, err = lintUnreached(".", unreachedAllow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	findings = append(findings, fs...)

	for _, f := range findings {
		fmt.Fprintln(os.Stderr, "doclint: "+f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Printf("doclint: %d package(s), %s and internal/'s exports clean\n", len(pkgs), *md)
}
