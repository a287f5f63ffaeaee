package core

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// moduleImports parses the imports of every Go file of the module
// (test files too when tests is set) and returns each package's
// imports from within the module, keyed by import path.
func moduleImports(t *testing.T, tests bool) map[string][]string {
	t.Helper()
	const root = "../.."
	imports := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && file != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build's caches
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || !tests && strings.HasSuffix(file, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return err
		}
		pkg := path.Join("multics", filepath.ToSlash(dir))
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(imp, "multics/") {
				imports[pkg] = append(imports[pkg], imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports
}

// TestKernelImportsNoRemovedService walks the kernel's import closure
// from this package, test files aside: the services the paper moved
// out of the kernel — the answering service (P3) and the dynamic
// linker (P1) — must not be reachable from it.
func TestKernelImportsNoRemovedService(t *testing.T) {
	const prefix = "multics/internal/"
	imports := moduleImports(t, false)
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

// TestOnlyLockrankNamesGoroutines: per-processor state lives on the
// executor's task, so the goroutine id is asked for only by lockrank's
// off-task held-lock stacks. Any other importer of goid, test files
// included, must first make its case here.
func TestOnlyLockrankNamesGoroutines(t *testing.T) {
	const goid = "multics/internal/goid"
	imports := moduleImports(t, true)
	if len(imports) == 0 {
		t.Fatal("parsed no imports")
	}
	for pkg, imps := range imports {
		for _, imp := range imps {
			if imp == goid && pkg != "multics/internal/lockrank" {
				t.Errorf("%s imports %s; only lockrank's off-task held-lock stacks may name a goroutine", pkg, goid)
			}
		}
	}
}

// TestImportsFollowFigure4 certifies the reproduction's own structure
// against the lattice it claims: every non-test Go import from one
// manager package to another must be an edge BuildGraph declares. The
// infrastructure packages sit below the lattice: any manager may import
// them, and none of them may import a manager.
func TestImportsFollowFigure4(t *testing.T) {
	const prefix = "multics/internal/"
	managers := map[string]string{
		"coreseg": ModCoreSeg, "vproc": ModVProc, "disk": ModDisk, "pageframe": ModFrame,
		"quota": ModQuota, "segment": ModSegment, "knownseg": ModKnownSeg, "directory": ModDir,
		"uproc": ModUProc, "salvage": ModSalvage,
	}
	infrastructure := []string{"hw", "trace", "schedsim", "lockrank", "eventcount", "upsignal", "aim", "deps"}
	g := BuildGraph()
	if len(managers) != len(g.Modules()) {
		t.Fatalf("%d manager packages mapped for the graph's %d modules", len(managers), len(g.Modules()))
	}
	declared := make(map[[2]string]bool)
	for _, e := range g.Edges() {
		declared[[2]string{e.From, e.To}] = true
	}
	imports := moduleImports(t, false)
	for pkg, mod := range managers {
		if _, ok := imports[prefix+pkg]; !ok {
			t.Errorf("parsed no imports for manager package %s", pkg)
		}
		for _, imp := range imports[prefix+pkg] {
			name := strings.TrimPrefix(imp, prefix)
			if slices.Contains(infrastructure, name) {
				continue
			}
			to, ok := managers[name]
			if !ok {
				t.Errorf("manager package %s imports %s, which is neither a manager nor named infrastructure", pkg, name)
			} else if !declared[[2]string{mod, to}] {
				t.Errorf("%s imports %s, but Figure 4 declares no dependency %s -> %s", pkg, name, mod, to)
			}
		}
	}
	for _, pkg := range infrastructure {
		for _, imp := range imports[prefix+pkg] {
			if _, ok := managers[strings.TrimPrefix(imp, prefix)]; ok {
				t.Errorf("infrastructure package %s imports manager %s; it must sit below the lattice", pkg, imp)
			}
		}
	}
}
