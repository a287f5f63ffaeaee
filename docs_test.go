package multics

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// benchTag matches a figure EXPERIMENTS.md quotes from
// BENCH_kernel.json: the number, then a comment naming the row and the
// metric path, as in
// 453<!-- bench P6 quota growth: per_depth.depth=8.static_cell_cycles -->.
// A field=value step picks the array element whose field has that value.
var benchTag = regexp.MustCompile(`([0-9][0-9,]*(?:\.[0-9]+)?)<!-- bench ([^>]+?) -->`)

// TestDocsQuoteBenchFigures: every figure EXPERIMENTS.md tags with a
// BENCH_kernel.json key names a key that exists and quotes its value,
// to the precision the document prints, so a regenerated report and
// the prose cannot drift apart.
func TestDocsQuoteBenchFigures(t *testing.T) {
	raw, err := os.ReadFile("BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Benchmarks []struct {
			Name    string
			Metrics map[string]any
		}
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	figures := make(map[string]float64)
	for _, b := range report.Benchmarks {
		for k, v := range b.Metrics {
			benchFigures(b.Name+": "+k, v, figures)
		}
	}
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tags := benchTag.FindAllStringSubmatch(string(text), -1)
	if len(tags) == 0 {
		t.Fatal("EXPERIMENTS.md tags no figure from BENCH_kernel.json")
	}
	for _, tag := range tags {
		quoted, key := tag[1], tag[2]
		v, ok := figures[key]
		if !ok {
			t.Errorf("EXPERIMENTS.md quotes %s, which BENCH_kernel.json does not have", key)
			continue
		}
		digits := strings.ReplaceAll(quoted, ",", "")
		_, frac, _ := strings.Cut(digits, ".")
		if want := strconv.FormatFloat(v, 'f', len(frac), 64); digits != want {
			t.Errorf("EXPERIMENTS.md quotes %s as %s; BENCH_kernel.json has %s", key, quoted, want)
		}
	}
}

// benchFigures adds every number under v to out, keyed by its path:
// map keys join with dots, and each element of an array is reachable
// through every number it holds, as field=value. A path two elements
// share is ambiguous and reads NaN, which no quote matches.
func benchFigures(path string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			benchFigures(path+"."+k, e, out)
		}
	case []any:
		for _, e := range x {
			m, _ := e.(map[string]any)
			for field, id := range m {
				if n, ok := id.(float64); ok {
					benchFigures(path+"."+field+"="+strconv.FormatFloat(n, 'f', -1, 64), m, out)
				}
			}
		}
	case float64:
		if old, dup := out[path]; dup && old != x {
			x = math.NaN()
		}
		out[path] = x
	}
}
