package core

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestKernelImportsNoRemovedService reads the imports of every
// non-test file under internal/ and walks the kernel's import closure
// from this package: the services the paper moved out of the kernel —
// the answering service (P3) and the dynamic linker (P1) — must not be
// reachable from it.
func TestKernelImportsNoRemovedService(t *testing.T) {
	const prefix = "multics/internal/"
	imports := make(map[string][]string) // package -> multics imports
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel("..", filepath.Dir(file))
		if err != nil {
			return err
		}
		pkg := prefix + filepath.ToSlash(dir)
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(imp, prefix) {
				imports[pkg] = append(imports[pkg], imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const root = prefix + "core"
	if _, ok := imports[root]; !ok {
		t.Fatalf("parsed no imports for %s", root)
	}
	// via records the importer through which each package was reached.
	via := map[string]string{root: ""}
	queue := []string{root}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, imp := range imports[pkg] {
			if _, seen := via[imp]; !seen {
				via[imp] = pkg
				queue = append(queue, imp)
			}
		}
	}
	for _, removed := range []string{"answering", "linker"} {
		pkg := prefix + removed
		if _, ok := via[pkg]; !ok {
			continue
		}
		chain := []string{path.Base(pkg)}
		for p := via[pkg]; p != ""; p = via[p] {
			chain = append([]string{path.Base(p)}, chain...)
		}
		t.Errorf("the kernel imports the %s service, which the paper moves out of it: %s",
			removed, strings.Join(chain, " -> "))
	}
}
