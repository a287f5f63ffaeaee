package deps

import (
	"strings"
	"testing"
	"testing/quick"
)

func chain(t *testing.T, names ...string) *Graph {
	t.Helper()
	g := New()
	for _, n := range names {
		g.AddModule(n, "test module "+n)
	}
	for i := 0; i+1 < len(names); i++ {
		if err := g.Depend(names[i], names[i+1], Component, ""); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestKindNames(t *testing.T) {
	for k := Component; k <= SharedData; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind name = %q", Kind(99).String())
	}
	for k := Component; k <= Interpreter; k++ {
		if !k.Disciplined() {
			t.Errorf("%v should be disciplined", k)
		}
	}
	for _, k := range []Kind{Call, SharedData} {
		if k.Disciplined() {
			t.Errorf("%v should be undisciplined", k)
		}
	}
}

func TestDependValidation(t *testing.T) {
	g := New()
	g.AddModule("a", "")
	if err := g.Depend("a", "b", Component, ""); err == nil {
		t.Error("dependency on unregistered module accepted")
	}
	if err := g.Depend("b", "a", Component, ""); err == nil {
		t.Error("dependency from unregistered module accepted")
	}
	if err := g.Depend("a", "a", Component, ""); err == nil {
		t.Error("self-dependency accepted")
	}
	g.AddModule("b", "")
	if err := g.Depend("a", "b", Map, "maps stored in b"); err != nil {
		t.Fatal(err)
	}
	es := g.EdgesFrom("a")
	if len(es) != 1 || es[0].To != "b" || es[0].Kind != Map {
		t.Errorf("EdgesFrom(a) = %+v", es)
	}
}

func TestMustDependPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDepend on unknown module did not panic")
		}
	}()
	New().MustDepend("x", "y", Component, "")
}

func TestLoopFreeChain(t *testing.T) {
	g := chain(t, "dir", "seg", "page")
	if len(g.Cycles()) != 0 {
		t.Errorf("chain reported loops: %v", g.Cycles())
	}
	layers, err := g.Layers()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"page"}, {"seg"}, {"dir"}}
	if len(layers) != len(want) {
		t.Fatalf("layers = %v", layers)
	}
	for i := range want {
		if len(layers[i]) != 1 || layers[i][0] != want[i][0] {
			t.Errorf("layer %d = %v, want %v", i, layers[i], want[i])
		}
	}
	if err := g.Verify(); err != nil {
		t.Errorf("Verify of clean chain: %v", err)
	}
}

func TestCycleDetection(t *testing.T) {
	// The paper's classic loop: page control depends on process
	// control (to give the processor away on a missing page), and
	// process control depends on segment control (to store process
	// states), which depends on page control.
	g := New()
	for _, m := range []string{"page", "process", "segment"} {
		g.AddModule(m, "")
	}
	g.MustDepend("page", "process", Call, "missing page gives up processor")
	g.MustDepend("process", "segment", Component, "process states stored in segments")
	g.MustDepend("segment", "page", Component, "segments made of pages")
	cycles := g.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v, want one", cycles)
	}
	if len(cycles[0]) != 3 {
		t.Errorf("cycle = %v, want all three modules", cycles[0])
	}
	if len(g.Cycles()) == 0 {
		t.Error("LoopFree on cyclic graph")
	}
	if _, err := g.Layers(); err == nil {
		t.Error("Layers on cyclic graph succeeded")
	}
	if err := g.Verify(); err == nil {
		t.Error("Verify on cyclic graph succeeded")
	} else if !strings.Contains(err.Error(), "loop") {
		t.Errorf("Verify error %q does not mention the loop", err)
	}
}

func TestTwoIndependentCycles(t *testing.T) {
	g := New()
	for _, m := range []string{"a", "b", "c", "d", "e"} {
		g.AddModule(m, "")
	}
	g.MustDepend("a", "b", Call, "")
	g.MustDepend("b", "a", Call, "")
	g.MustDepend("c", "d", SharedData, "")
	g.MustDepend("d", "c", SharedData, "")
	g.MustDepend("a", "e", Component, "")
	cycles := g.Cycles()
	if len(cycles) != 2 {
		t.Fatalf("cycles = %v, want two", cycles)
	}
}

func TestUndisciplinedEdges(t *testing.T) {
	g := New()
	g.AddModule("a", "")
	g.AddModule("b", "")
	g.MustDepend("a", "b", SharedData, "a reads b's table directly")
	u := g.Undisciplined()
	if len(u) != 1 || u[0].Kind != SharedData {
		t.Errorf("Undisciplined = %+v", u)
	}
	// Loop-free but undisciplined still fails Verify: the goal is
	// elimination of such dependencies.
	if len(g.Cycles()) != 0 {
		t.Error("graph with one edge is not loop-free?")
	}
	if err := g.Verify(); err == nil {
		t.Error("Verify accepted an undisciplined edge")
	}
}

func TestLayersDiamond(t *testing.T) {
	g := New()
	for _, m := range []string{"top", "l", "r", "bottom"} {
		g.AddModule(m, "")
	}
	g.MustDepend("top", "l", Component, "")
	g.MustDepend("top", "r", Component, "")
	g.MustDepend("l", "bottom", Component, "")
	g.MustDepend("r", "bottom", Component, "")
	layers, err := g.Layers()
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 3 {
		t.Fatalf("layers = %v", layers)
	}
	if layers[0][0] != "bottom" || len(layers[1]) != 2 || layers[2][0] != "top" {
		t.Errorf("layers = %v", layers)
	}
}

func TestModuleBookkeeping(t *testing.T) {
	g := New()
	g.AddModule("m", "first")
	g.AddModule("m", "second") // update, not duplicate
	if got := g.Modules(); len(got) != 1 {
		t.Errorf("Modules = %v", got)
	}
	if text := g.Text(); !strings.Contains(text, "m — second") || strings.Contains(text, "first") {
		t.Errorf("Text() does not carry the updated description:\n%s", text)
	}
	if !g.HasModule("m") || g.HasModule("x") {
		t.Error("HasModule wrong")
	}
}

func TestTextAndDOT(t *testing.T) {
	g := chain(t, "dir", "seg")
	g.MustDepend("seg", "dir", SharedData, "bad back edge")
	text := g.Text()
	for _, want := range []string{"dir", "seg", "component", "shared-data"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	dot := g.DOT("fig")
	for _, want := range []string{"digraph", `"dir" -> "seg"`, "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT() missing %q:\n%s", want, dot)
		}
	}
}

func TestEdgesReturnsCopy(t *testing.T) {
	g := chain(t, "a", "b")
	es := g.EdgesFrom("a")
	es[0].To = "corrupted"
	if g.EdgesFrom("a")[0].To != "b" {
		t.Error("EdgesFrom returned aliased slice")
	}
	ms := g.Modules()
	ms[0] = "corrupted"
	if g.Modules()[0] != "a" {
		t.Error("Modules returned aliased slice")
	}
}

// Property: a randomly generated DAG (edges only from higher to lower
// index) is always loop-free and layerable, and every module appears
// in exactly one layer.
func TestRandomDAGLoopFree(t *testing.T) {
	f := func(adj [8][8]bool) bool {
		g := New()
		names := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
		for _, n := range names {
			g.AddModule(n, "")
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < i; j++ {
				if adj[i][j] {
					g.MustDepend(names[i], names[j], Component, "")
				}
			}
		}
		if len(g.Cycles()) != 0 {
			return false
		}
		layers, err := g.Layers()
		if err != nil {
			return false
		}
		count := 0
		for _, l := range layers {
			count += len(l)
		}
		return count == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: adding a back edge to a chain always creates exactly the
// loop spanning the two endpoints' range.
func TestBackEdgeMakesLoop(t *testing.T) {
	f := func(n, from, to uint8) bool {
		size := int(n%6) + 3 // 3..8 modules
		lo := int(to) % size
		hi := int(from) % size
		if lo >= hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return true // nothing to do
		}
		g := New()
		names := make([]string, size)
		for i := range names {
			names[i] = string(rune('a' + i))
			g.AddModule(names[i], "")
		}
		for i := 0; i+1 < size; i++ {
			g.MustDepend(names[i], names[i+1], Component, "")
		}
		// chain runs a->b->c...; back edge from the deeper module
		// (higher index) to the shallower one creates a loop.
		g.MustDepend(names[hi], names[lo], Call, "back edge")
		cycles := g.Cycles()
		return len(cycles) == 1 && len(cycles[0]) == hi-lo+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
