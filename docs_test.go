package multics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedTest matches a test, benchmark, fuzz target or example named in
// prose; a trailing * cites every function with that prefix.
var citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*\*?`)

// TestDocsNameRealTests: every test, benchmark, fuzz target or example
// the documents cite is declared by some Go file of the repository, so
// a document cannot point a reader at a check that does not exist.
func TestDocsNameRealTests(t *testing.T) {
	declared := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isDeclared := func(name string) bool {
		prefix, ok := strings.CutSuffix(name, "*")
		if !ok {
			return declared[name]
		}
		for fn := range declared {
			if strings.HasPrefix(fn, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "SPEC.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTest.FindAllString(string(text), -1) {
			if !isDeclared(name) {
				t.Errorf("%s cites %s, which no Go file declares", doc, name)
			}
		}
	}
}
