package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// walkModule parses every Go file of the module, bench/ included (test
// files too when tests is set), and hands each to fn with its package's
// import path.
func walkModule(t *testing.T, tests bool, mode parser.Mode, fn func(pkg, file string, f *ast.File)) {
	t.Helper()
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && file != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build's caches
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || !tests && strings.HasSuffix(file, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, mode)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return err
		}
		fn(path.Join("multics", filepath.ToSlash(dir)), file, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleImports parses the imports of every Go file of the module
// (test files too when tests is set) and returns each package's
// imports from within the module, keyed by import path.
func moduleImports(t *testing.T, tests bool) map[string][]string {
	t.Helper()
	imports := make(map[string][]string)
	walkModule(t, tests, parser.ImportsOnly, func(pkg, file string, f *ast.File) {
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if strings.HasPrefix(imp, "multics/") {
				imports[pkg] = append(imports[pkg], imp)
			}
		}
	})
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

// TestNoGoroutineIdentity: per-processor state, held ranked locks
// included, lives on the executor's task, so nothing asks which
// goroutine it runs on. No file imports a goroutine-id package, and no
// non-test file calls runtime.Stack, the one way to parse a goroutine
// id out of the runtime.
func TestNoGoroutineIdentity(t *testing.T) {
	files := 0
	walkModule(t, true, 0, func(pkg, file string, f *ast.File) {
		files++
		runtimeName := ""
		for _, spec := range f.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			if path.Base(imp) == "goid" {
				t.Errorf("%s imports goroutine-id package %s", file, imp)
			}
			if imp == "runtime" {
				runtimeName = "runtime"
				if spec.Name != nil {
					runtimeName = spec.Name.Name
				}
			}
		}
		if runtimeName == "" || strings.HasSuffix(file, "_test.go") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stack" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == runtimeName {
					t.Errorf("%s calls runtime.Stack at %s", pkg, file)
				}
			}
			return true
		})
	})
	if files == 0 {
		t.Fatal("parsed no files")
	}
}

// TestOnlyTraceAndHWReadBoundCPU: a processor binding is read by the
// trace recorder (event stamps, span stacks) and the cost meter's
// per-processor accounts alone. A manager that kept per-processor state
// of its own would need the binding, and would be a second thing to
// certify per processor; non-test files of any other package must not
// name trace.BoundCPU.
func TestOnlyTraceAndHWReadBoundCPU(t *testing.T) {
	const tracePkg = "multics/internal/trace"
	files := 0
	walkModule(t, false, 0, func(pkg, file string, f *ast.File) {
		files++
		if pkg == tracePkg || pkg == "multics/internal/hw" {
			return
		}
		for _, spec := range f.Imports {
			if imp, _ := strconv.Unquote(spec.Path.Value); imp != tracePkg {
				continue
			}
			name := path.Base(tracePkg)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "BoundCPU" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					t.Errorf("%s names trace.BoundCPU; only the trace recorder and the cost meter read a processor binding", file)
				}
				return true
			})
		}
	})
	if files == 0 {
		t.Fatal("parsed no files")
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
	for _, m := range g.Modules() {
		for _, e := range g.EdgesFrom(m) {
			declared[[2]string{e.From, e.To}] = true
		}
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

// entryPointsWithoutCallers keeps the exported entry points under
// internal/ that no non-test code calls, each with what justifies it:
// a test that uses it as a seam, or as a check that Audit, Stats,
// audit.Balance and trace.Snapshot do not give, or the README, DESIGN
// or EXPERIMENTS sentence that cites it as reproducing part of the
// paper. Keys are package.Func or package.Type.Method.
var entryPointsWithoutCallers = map[string]string{
	"baseline.Supervisor.ResolvePath":     "the 1974 supervisor's buried resolver, README.md's \"pathname resolution buried in the supervisor\"; TestPathResolutionBuriedInKernel",
	"core.Kernel.Rename":                  "user gate (SPEC.md directory-manager Operations); TestRenameAndTruncateGates",
	"core.Kernel.SetACL":                  "user gate (SPEC.md directory-manager Operations); TestSetACLGate",
	"fnp.FNP.DeliveryEC":                  "DESIGN.md's eventcount-driven delivery, the consumers' idle idiom: TestEventcountConsumer, TestSweepNoLostWakeupCreditReturn",
	"hw.AssociativeMemory.Fingerprint":    "cache contents in the determinism surface: TestTraceDeterminism, TestAssocFingerprintDeterministic",
	"hw.AssociativeMemory.HoldReference":  "seam pinning a reference across a shootdown: TestZeroEvictionRevalidatesAfterShootdown",
	"pageframe.Manager.FreeFrames":        "frames returned to the free pool, which Stats does not count: TestLoadPageAlreadyPresent, TestPrefetchPurgedOnDropPage, TestDemountMountRoundTrip",
	"pageframe.Manager.SampleWorkingSets": "EXPERIMENTS.md's Gifford section; TestSampleWorkingSets",
	"quota.Manager.SetLimit":              "seam raising a wedged process's quota: TestFailureQuotaExhaustionIsRecoverable",
	"schedsim.EnvBudget":                  "budget of the schedule sweeps: TestSweepZeroReclaimWindow, TestSweepDispatchDestroy",
	"schedsim.RoundRobin":                 "DESIGN.md's schedsim strategies; TestSweepReplayIsExact, TestSpanPerCPUStacks",
	"schedsim.Sweep":                      "DESIGN.md's systematic schedule sweeps; TestSweepFindsLostUpdate, TestSweepDispatchDestroy",
	"segment.Manager.ReadWord":            "reads a word back without a processor: TestWriteReadWord, TestDemountMountRoundTrip",
	"sysinit.Plan.RunKernelPhase":         "DESIGN.md's Luniewski row; TestTwoPhaseBoot",
	"sysinit.Plan.RunUserPhase":           "DESIGN.md's Luniewski row; TestTwoPhaseBoot",
	"trace.FormatSpans":                   "byte-identical span streams: TestTraceDeterminism",
	"trace.Recorder.SpanMismatches":       "instrumentation check Snapshot does not give: TestTraceDeterminism, TestSpanMismatchCounting",
	"trace.Recorder.SpansDropped":         "span-ring overwrites, which Snapshot does not count: TestSpanRingWrap, TestConcurrentSpans",
	"uproc.Process.StateSegment":          "process state in virtual memory: TestProcessStateInVirtualMemory",
	"vproc.Manager.FreeVPs":               "a leaked virtual processor: TestSweepDispatchDestroy, TestDestroyReleasesEverything",
	"workload.Catalogue":                  "DESIGN.md's scenario catalogue; TestCatalogueOnGoroutines, TestTraceDeterminism",
}

// TestExportedEntryPointsHaveCallers certifies the reproduction's own
// interface as the paper certifies the kernel's: an exported function
// or method declared in a non-test file under internal/ must be
// referenced by name from some non-test file of the module, bench/
// included, outside its own declaration. Methods named by an
// interface of the module, String and Error are exempt; the rest need
// an entry in entryPointsWithoutCallers naming a test that exists or a
// document.
func TestExportedEntryPointsHaveCallers(t *testing.T) {
	type decl struct {
		key, name, file string
		method          bool
		pos, end        token.Pos // one file set: positions are module-wide
	}
	var decls []decl
	uses := make(map[string][]token.Pos)
	exempt := map[string]bool{"String": true, "Error": true}
	tests := make(map[string]bool)
	walkModule(t, true, 0, func(pkg, file string, f *ast.File) {
		if strings.HasSuffix(file, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					tests[fn.Name.Name] = true
				}
			}
			return
		}
		declName := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						exempt[name.Name] = true
					}
				}
			case *ast.FuncDecl:
				declName[n.Name] = true
				if !n.Name.IsExported() || !strings.HasPrefix(pkg, "multics/internal/") {
					return true
				}
				key := path.Base(pkg) + "."
				if n.Recv != nil {
					typ := n.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					key += typ.(*ast.Ident).Name + "."
				}
				decls = append(decls, decl{key + n.Name.Name, n.Name.Name, file, n.Recv != nil, n.Pos(), n.End()})
			case *ast.Ident:
				if !declName[n] {
					uses[n.Name] = append(uses[n.Name], n.Pos())
				}
			}
			return true
		})
	})
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	orphans := make(map[string]bool)
	for _, d := range decls {
		if d.method && exempt[d.name] {
			continue
		}
		called := false
		for _, pos := range uses[d.name] {
			called = called || pos < d.pos || pos >= d.end
		}
		if called {
			continue
		}
		orphans[d.key] = true
		if entryPointsWithoutCallers[d.key] == "" {
			t.Errorf("%s (%s) has no caller outside tests: give it one the paper motivates, delete it, or justify it in entryPointsWithoutCallers",
				d.key, strings.TrimPrefix(d.file, "../../"))
		}
	}
	testName := regexp.MustCompile(`\bTest[A-Z]\w*`)
	for key, why := range entryPointsWithoutCallers {
		if !orphans[key] {
			t.Errorf("entryPointsWithoutCallers lists %s, which is gone or has a caller now: drop the entry", key)
		}
		names := testName.FindAllString(why, -1)
		if len(names) == 0 && !strings.Contains(why, ".md") {
			t.Errorf("entryPointsWithoutCallers[%s] names neither a test nor a document: %q", key, why)
		}
		for _, name := range names {
			if !tests[name] {
				t.Errorf("entryPointsWithoutCallers[%s] cites %s, which no test file declares", key, name)
			}
		}
	}
}
