package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlprogress/internal/core"
)

// writePkg drops a single-file package into a temp dir.
func writePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestLintPackageFlagsUndocumentedSymbols(t *testing.T) {
	dir := writePkg(t, `package x

// Documented is fine.
type Documented struct{}

type Naked struct{}

// DoThing is fine.
func DoThing() {}

func NakedFunc() {}

// Method is fine.
func (Documented) Method() {}

func (Documented) NakedMethod() {}

// unexported needs nothing.
func hidden() {}

// Grouped constants share the group comment.
const (
	GroupedA = 1
	GroupedB = 2
)

var NakedVar = 3
`)
	findings, err := lintPackage(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"type Naked", "function NakedFunc", "method Documented.NakedMethod", "variable NakedVar"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding for %q in:\n%s", want, joined)
		}
	}
	for _, clean := range []string{"Documented ", "DoThing", "Documented.Method ", "GroupedA", "GroupedB", "hidden"} {
		if strings.Contains(joined, clean) {
			t.Errorf("false positive mentioning %q in:\n%s", clean, joined)
		}
	}
	if len(findings) != 4 {
		t.Errorf("got %d findings, want 4:\n%s", len(findings), joined)
	}
}

// TestLintPackageRemovalDetected is the gate's negative self-test: strip a
// doc comment from an otherwise clean package and the lint must start
// failing.
func TestLintPackageRemovalDetected(t *testing.T) {
	clean := writePkg(t, "package x\n\n// Exported is documented.\nfunc Exported() {}\n")
	findings, err := lintPackage(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("clean package flagged: %v", findings)
	}
	stripped := writePkg(t, "package x\n\nfunc Exported() {}\n")
	findings, err = lintPackage(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("stripped doc comment not detected: %v", findings)
	}
}

// TestGatedPackagesAreClean holds the repo to its own gate from inside the
// test suite, so a doc regression fails `go test ./...` as well as CI's
// doclint step.
func TestGatedPackagesAreClean(t *testing.T) {
	for _, dir := range defaultPackages {
		findings, err := lintPackage(filepath.Join("..", "..", dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

func TestLintEstimatorDocs(t *testing.T) {
	var full strings.Builder
	full.WriteString("# Estimators\n\n")
	for _, e := range core.RegisteredEstimators() {
		full.WriteString("- `" + e.Name() + "`: documented.\n")
	}
	path := filepath.Join(t.TempDir(), "EST.md")
	if err := os.WriteFile(path, []byte(full.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintEstimatorDocs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("complete handbook flagged: %v", findings)
	}

	// Remove one estimator's entry: the lint must name exactly it.
	partial := strings.Replace(full.String(), "- `combiner`: documented.\n", "", 1)
	if err := os.WriteFile(path, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err = lintEstimatorDocs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "`combiner`") {
		t.Fatalf("missing combiner entry not detected: %v", findings)
	}
}

// TestHandbookCoversRegistry gates the real ESTIMATORS.md from the test
// suite too.
func TestHandbookCoversRegistry(t *testing.T) {
	findings, err := lintEstimatorDocs(filepath.Join("..", "..", "ESTIMATORS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// writeModule lays out a module from path -> source pairs in a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLintUnreachedFlagsTestOnlyExports(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/p/p.go": `package p

// Used is named by the command.
func Used() { helper() }

// OnlyTested is named only from p_test.go.
func OnlyTested() { OnlyTested() }

func helper() {}

// T is an error the command returns.
type T struct{}

// Error implements error: reached through the interface.
func (T) Error() string { return "t" }

// M is named only from p_test.go.
func (T) M() {}
`,
		"internal/p/p_test.go": `package p

import "testing"

func TestP(t *testing.T) { OnlyTested(); T{}.M() }
`,
		"internal/coretest/c.go": "package coretest\n\n// Exempt is test support.\nfunc Exempt() {}\n",
		"cmd/main.go": `package main

import "fixture/internal/p"

func main() {
	p.Used()
	var err error = p.T{}
	_ = err
}
`,
	})
	findings, err := lintUnreached(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	if len(findings) != 2 || !strings.Contains(joined, "p.OnlyTested ") || !strings.Contains(joined, "p.T.M ") {
		t.Fatalf("want p.OnlyTested and p.T.M flagged, got:\n%s", joined)
	}

	// On the allow-list, the same identifiers pass.
	findings, err = lintUnreached(root, map[string]string{"p.OnlyTested": "kept for a test", "p.T.M": "kept for a test"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("allow-listed identifiers flagged: %v", findings)
	}

	// An allow-list entry for a reached identifier is stale.
	findings, err = lintUnreached(root, map[string]string{"p.OnlyTested": "kept", "p.T.M": "kept", "p.Used": "stale"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "entry p.Used") {
		t.Fatalf("stale allow-list entry not reported: %v", findings)
	}
}

// TestRepoHasNoUnreachedExports gates the repo itself from the test suite,
// as TestGatedPackagesAreClean does for doc comments.
func TestRepoHasNoUnreachedExports(t *testing.T) {
	findings, err := lintUnreached(filepath.Join("..", ".."), unreachedAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
