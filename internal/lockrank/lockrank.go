// Package lockrank turns the kernel's certification order into a
// runtime locking discipline.
//
// The dependency lattice (package deps) proves that module A may call
// module B only when A is certified in a later layer than B. On a
// multiprocessor the same structure must govern mutual exclusion: a
// processor holding module A's lock may acquire module B's lock only
// if B lies strictly below A, because calls — and therefore nested
// acquisitions — only ever go downward. Any other acquisition order
// could deadlock against a processor traversing the lattice properly,
// and would mean a lower layer is waiting on an upper one, the exact
// dependency the redesign eliminated.
//
// A Mutex is bound at initialization to its owning module's name; its
// rank is the module's certification layer, computed from
// deps.Graph.Layers() and installed at boot. Acquiring a Mutex while
// holding one of equal or lower rank panics when checking is on (the
// debug build); SetChecking(false) turns the primitive into a plain
// mutex for release builds and benchmarks. Modules that own more than
// one lock split their layer into sub-ranks, so the discipline also
// orders locks within a module.
//
// The check runs where the held locks are known: on a task of the
// deterministic executor (package schedsim), which carries its stack
// of held locks with its other per-processor state. Off a task a
// Mutex is a plain mutex. That leaves no kernel lock order unchecked
// only while every order taken off a task is also taken on one: the
// simulator's runs check rank order, and runs on real goroutines
// check data races under -race.
//
// Locks whose module is not in the installed layer table — unit tests
// exercising one manager alone, or hardware-level leaf locks — are
// unranked and unchecked.
package lockrank

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"multics/internal/schedsim"
)

// Rank is a lock's position in the acquisition order: certification
// layer times MaxSubs plus the sub-rank. Locks must be acquired in
// strictly descending rank order.
type Rank int

// Unranked marks a lock whose module has no installed layer; it is
// never checked.
const Unranked Rank = -1

// MaxSubs is the number of sub-ranks each certification layer is
// divided into, for modules that own several locks.
const MaxSubs = 8

var checking atomic.Bool

func init() { checking.Store(true) }

// SetChecking turns the acquisition-order checker on or off
// process-wide and returns the previous setting. Checking is on by
// default (the debug build); benchmarks measuring parallel throughput
// turn it off (the release build).
func SetChecking(on bool) bool { return checking.Swap(on) }

var reg struct {
	mu sync.Mutex
	// layer maps a module name to its certification layer.
	layer map[string]int
	// locks records every (module, sub) a Mutex was initialized
	// with, for the rank table, and the lock name rendered for it once.
	locks map[string]map[int]string
}

// SetLayers installs module ranks from a certification order: every
// module in layers[i] gets layer i. The kernel calls it at boot with
// deps.Graph.Layers(); the graph is static, so repeated boots install
// identical ranks.
func SetLayers(layers [][]string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.layer == nil {
		reg.layer = make(map[string]int)
	}
	for i, layer := range layers {
		for _, mod := range layer {
			reg.layer[mod] = i
		}
	}
}

// SetModuleLayer installs one module's layer directly, for locks that
// sit outside the dependency graph proper — the kernel's own gate
// lock ranks one layer above the whole lattice.
func SetModuleLayer(module string, layer int) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.layer == nil {
		reg.layer = make(map[string]int)
	}
	reg.layer[module] = layer
}

// LayerOf reports the installed certification layer of a module.
func LayerOf(module string) (int, bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	l, ok := reg.layer[module]
	return l, ok
}

// noteLock records (module, sub) for the rank table and returns its
// lock name, rendered on the first call only: a manager that inits a
// lock per process record formats nothing after the first.
func noteLock(module string, sub int) string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.locks == nil {
		reg.locks = make(map[string]map[int]string)
	}
	subs := reg.locks[module]
	if subs == nil {
		subs = make(map[int]string)
		reg.locks[module] = subs
	}
	name, ok := subs[sub]
	if !ok {
		name = Entry{Module: module, Sub: sub}.Name()
		subs[sub] = name
	}
	return name
}

// An Entry describes one declared ranked lock in the rank table.
type Entry struct {
	Module string
	Sub    int
	// Layer is the module's certification layer, -1 if none is
	// installed.
	Layer int
	// Rank is the acquisition rank, Unranked if no layer is
	// installed.
	Rank Rank
}

// Name renders the lock's name: the module, with "#sub" appended for
// sub-ranked locks.
func (e Entry) Name() string {
	if e.Sub == 0 {
		return e.Module
	}
	return fmt.Sprintf("%s#%d", e.Module, e.Sub)
}

// Table returns every declared ranked lock with its resolved rank,
// sorted by rank (unranked last), then name. cmd/depgraph prints it
// alongside the Figure-4 lattice.
func Table() []Entry {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var out []Entry
	for module, subs := range reg.locks {
		for sub := range subs {
			e := Entry{Module: module, Sub: sub, Layer: -1, Rank: Unranked}
			if l, ok := reg.layer[module]; ok {
				e.Layer = l
				e.Rank = Rank(l*MaxSubs + sub)
			}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Rank, out[j].Rank
		if (ri == Unranked) != (rj == Unranked) {
			return rj == Unranked
		}
		if ri != rj {
			return ri < rj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// A Mutex is a mutual-exclusion lock ranked by its owning module's
// certification layer. The zero value is usable as an unranked plain
// mutex; Init or InitSub binds it to a module before first use.
type Mutex struct {
	mu     sync.Mutex
	module string
	sub    int
	// name is the rendered Name, set once by InitSub so an acquisition
	// formats nothing.
	name string
	// rank caches the resolved rank plus one; zero means not yet
	// resolved (ranks are static once the layer table is
	// installed, so the cache never invalidates).
	rank atomic.Int64
	// tracked is written only by the holder between Lock and
	// Unlock: whether this acquisition pushed a held-stack entry.
	tracked bool
}

// Init binds the mutex to its owning module at sub-rank 0.
func (m *Mutex) Init(module string) { m.InitSub(module, 0) }

// InitSub binds the mutex to its owning module at the given sub-rank.
// Higher sub-ranks must be acquired first; a module's primary lock
// conventionally takes the highest sub-rank it uses, and locks it
// nests inside take lower ones.
func (m *Mutex) InitSub(module string, sub int) {
	if sub < 0 || sub >= MaxSubs {
		panic(fmt.Sprintf("lockrank: sub-rank %d out of range [0,%d)", sub, MaxSubs))
	}
	m.module = module
	m.sub = sub
	m.name = noteLock(module, sub)
}

// Name renders the lock's name for diagnostics.
func (m *Mutex) Name() string {
	if m.name == "" {
		return "(unranked)"
	}
	return m.name
}

// Rank returns the lock's current rank, Unranked while its module has
// no installed layer.
func (m *Mutex) Rank() Rank {
	if r := m.rank.Load(); r != 0 {
		return Rank(r - 1)
	}
	if m.module == "" {
		return Unranked
	}
	l, ok := LayerOf(m.module)
	if !ok {
		return Unranked
	}
	r := Rank(l*MaxSubs + m.sub)
	m.rank.Store(int64(r) + 1)
	return r
}

// pushHeld checks the acquisition order against the calling task's
// held stack and records the lock on it. It reports whether an entry
// was pushed (checking on, the caller a task and the lock ranked); a
// rank violation panics.
func (m *Mutex) pushHeld() bool {
	if !checking.Load() {
		return false
	}
	l := schedsim.Current()
	if l == nil {
		return false
	}
	r := m.Rank()
	if r == Unranked {
		return false
	}
	name := m.Name()
	for _, h := range l.Held {
		if Rank(h.Rank) <= r {
			panic(fmt.Sprintf(
				"lockrank: acquiring %s (rank %d) while holding %s (rank %d): lock acquisition must descend the certification order",
				name, r, h.Name, h.Rank))
		}
	}
	l.Held = append(l.Held, schedsim.HeldLock{Rank: int(r), Name: name})
	return true
}

// popHeld removes the lock's entry from the calling task's held
// stack, innermost first.
func popHeld(name string) {
	l := schedsim.Current()
	if l == nil {
		return
	}
	for i := len(l.Held) - 1; i >= 0; i-- {
		if l.Held[i].Name == name {
			l.Held = append(l.Held[:i], l.Held[i+1:]...)
			return
		}
	}
}

// Lock acquires the mutex. With checking on, a task that acquires it
// while holding a ranked lock of equal or lower rank panics: that
// acquisition order does not exist in the certified lattice.
func (m *Mutex) Lock() {
	track := m.pushHeld()
	// On a task the acquisition is a yield point and contention parks
	// the task cooperatively; off a task it is a plain mutex acquire.
	if !schedsim.LockAcquire(&m.mu, m.Name()) {
		m.mu.Lock()
	}
	m.tracked = track
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	track := m.tracked
	m.tracked = false
	name := m.Name()
	m.mu.Unlock()
	if track {
		popHeld(name)
	}
}
