// Package deps implements the dependency-structure discipline at the
// center of the kernel design project: modules are object managers,
// each dependency of one module on another is classified into one of
// the five kinds the paper enumerates (component, map, program,
// address-space, interpreter), and the whole structure must be
// loop-free — a lattice — so that system correctness can be
// established iteratively, one module at a time.
//
// Two further kinds, Call and SharedData, classify the dependencies
// one encounters in an existing design "modularized and structured by
// different principles (or no principles at all)": explicit procedure
// calls or messages expecting replies, and direct sharing of writable
// data. The paper notes their proper classification is of no concern
// because the goal is their elimination; the analyzer carries them so
// the 1974 baseline structure (Figure 3) can be expressed and its
// loops found.
package deps

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies one dependency of a module on another.
type Kind int

const (
	// Component: M depends on the managers of the objects that are
	// the components of the objects M defines.
	Component Kind = iota
	// Map: M depends on the managers providing the objects in which
	// M's name-to-component maps are stored.
	Map
	// Program: M's algorithms and temporary storage are contained
	// in objects whose managers M depends on.
	Program
	// AddressSpace: the address space in which M executes is an
	// object whose manager M depends on.
	AddressSpace
	// Interpreter: M requires a virtual processor to execute, and
	// depends on the module implementing it.
	Interpreter
	// Call: an explicit procedure call or a message from which a
	// reply is expected (found only in pre-discipline designs).
	Call
	// SharedData: direct sharing of writable data between modules
	// (found only in pre-discipline designs).
	SharedData
)

var kindNames = map[Kind]string{
	Component:    "component",
	Map:          "map",
	Program:      "program",
	AddressSpace: "address-space",
	Interpreter:  "interpreter",
	Call:         "call",
	SharedData:   "shared-data",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Disciplined reports whether k is one of the five kinds a
// type-extension design admits.
func (k Kind) Disciplined() bool { return k <= Interpreter }

// An Edge is one classified dependency: From depends on To.
type Edge struct {
	From, To string
	Kind     Kind
	// Note records why the dependency exists (e.g. "directory
	// representations are stored in segments").
	Note string
}

// A Graph is a set of modules and classified dependencies among them.
// Module and edge insertion order is preserved, so renderings are
// deterministic.
type Graph struct {
	names   []string
	modules map[string]string // name -> description
	edges   []Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{modules: make(map[string]string)}
}

// AddModule registers a module with a one-line description. Adding an
// existing name updates its description.
func (g *Graph) AddModule(name, desc string) {
	if _, ok := g.modules[name]; !ok {
		g.names = append(g.names, name)
	}
	g.modules[name] = desc
}

// HasModule reports whether name is registered.
func (g *Graph) HasModule(name string) bool {
	_, ok := g.modules[name]
	return ok
}

// Modules returns the module names in registration order.
func (g *Graph) Modules() []string {
	return append([]string(nil), g.names...)
}

// Depend records that from depends on to, with the given kind and
// explanatory note. Both modules must be registered and distinct:
// a module participating in the implementation of its own execution
// environment is exactly the loop the discipline exists to forbid, so
// self-dependencies are rejected outright.
func (g *Graph) Depend(from, to string, kind Kind, note string) error {
	if !g.HasModule(from) {
		return fmt.Errorf("deps: unknown module %q", from)
	}
	if !g.HasModule(to) {
		return fmt.Errorf("deps: unknown module %q", to)
	}
	if from == to {
		return fmt.Errorf("deps: module %q cannot depend on itself", from)
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Kind: kind, Note: note})
	return nil
}

// MustDepend is Depend panicking on error; kernel construction uses it
// for edges that are wrong only if the program itself is wrong.
func (g *Graph) MustDepend(from, to string, kind Kind, note string) {
	if err := g.Depend(from, to, kind, note); err != nil {
		panic(err)
	}
}

// EdgesFrom returns the edges leaving module name.
func (g *Graph) EdgesFrom(name string) []Edge {
	var out []Edge
	for _, e := range g.edges {
		if e.From == name {
			out = append(out, e)
		}
	}
	return out
}

// Undisciplined returns the edges whose kind does not fit the
// five-way classification of a type-extension design.
func (g *Graph) Undisciplined() []Edge {
	var out []Edge
	for _, e := range g.edges {
		if !e.Kind.Disciplined() {
			out = append(out, e)
		}
	}
	return out
}

// adjacency returns the deduplicated successor lists in deterministic
// order.
func (g *Graph) adjacency() map[string][]string {
	adj := make(map[string][]string, len(g.names))
	seen := make(map[[2]string]bool)
	for _, e := range g.edges {
		k := [2]string{e.From, e.To}
		if seen[k] {
			continue
		}
		seen[k] = true
		adj[e.From] = append(adj[e.From], e.To)
	}
	return adj
}

// Cycles returns every strongly connected component containing more
// than one module, in deterministic order: the dependency loops that
// make iterative certification impossible. A loop-free graph returns
// nil.
func (g *Graph) Cycles() [][]string {
	adj := g.adjacency()
	// Tarjan's strongly-connected-components algorithm, iterative
	// ordering fixed by module registration order.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var counter int
	var sccs [][]string

	var strongConnect func(v string)
	strongConnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongConnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range g.names {
		if _, seen := index[v]; !seen {
			strongConnect(v)
		}
	}
	return sccs
}

// Layers assigns each module its certification layer: a module with no
// dependencies is layer 0, and otherwise a module's layer is one more
// than the highest layer it depends on. Correctness can then be
// established one layer at a time from the bottom. Layers fails if
// the graph has cycles.
func (g *Graph) Layers() ([][]string, error) {
	if cycles := g.Cycles(); len(cycles) > 0 {
		return nil, fmt.Errorf("deps: dependency loops prevent layering: %v", cycles)
	}
	adj := g.adjacency()
	memo := make(map[string]int)
	var depth func(v string) int
	depth = func(v string) int {
		if d, ok := memo[v]; ok {
			return d
		}
		memo[v] = 0 // no cycles, so this placeholder is never read back
		d := 0
		for _, w := range adj[v] {
			if dw := depth(w) + 1; dw > d {
				d = dw
			}
		}
		memo[v] = d
		return d
	}
	max := 0
	for _, v := range g.names {
		if d := depth(v); d > max {
			max = d
		}
	}
	layers := make([][]string, max+1)
	for _, v := range g.names {
		d := memo[v]
		layers[d] = append(layers[d], v)
	}
	return layers, nil
}

// Verify returns an error describing every dependency loop and every
// undisciplined edge, or nil if the structure satisfies the
// type-extension rationale. The kernel refuses to boot if Verify
// fails.
func (g *Graph) Verify() error {
	var problems []string
	for _, c := range g.Cycles() {
		problems = append(problems, fmt.Sprintf("dependency loop among %s", strings.Join(c, ", ")))
	}
	for _, e := range g.Undisciplined() {
		problems = append(problems, fmt.Sprintf("undisciplined %v dependency %s -> %s (%s)", e.Kind, e.From, e.To, e.Note))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("deps: %s", strings.Join(problems, "; "))
}

// Text renders the graph as a readable adjacency listing.
func (g *Graph) Text() string {
	var b strings.Builder
	for _, name := range g.names {
		fmt.Fprintf(&b, "%s — %s\n", name, g.modules[name])
		for _, e := range g.EdgesFrom(name) {
			fmt.Fprintf(&b, "    depends on %-24s [%s] %s\n", e.To, e.Kind, e.Note)
		}
	}
	return b.String()
}

// DOT renders the graph in Graphviz dot form; undisciplined edges are
// drawn dashed and loops can be spotted visually.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=BT;\n  node [shape=box];\n")
	for _, name := range g.names {
		fmt.Fprintf(&b, "  %q;\n", name)
	}
	for _, e := range g.edges {
		style := ""
		if !e.Kind.Disciplined() {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", e.From, e.To, e.Kind.String(), style)
	}
	b.WriteString("}\n")
	return b.String()
}
