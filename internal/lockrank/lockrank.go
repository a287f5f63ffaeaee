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
// Locks whose module is not in the installed layer table — unit tests
// exercising one manager alone, or hardware-level leaf locks — are
// unranked and unchecked.
package lockrank

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"multics/internal/goid"
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

// Checking reports whether the acquisition-order checker is on.
func Checking() bool { return checking.Load() }

var reg struct {
	mu sync.Mutex
	// layer maps a module name to its certification layer.
	layer map[string]int
	// locks records every (module, sub) a Mutex was initialized
	// with, for the rank table.
	locks map[string]map[int]bool
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

// RankOf computes the rank a lock of the given module and sub-rank
// would have, Unranked if the module has no installed layer.
func RankOf(module string, sub int) Rank {
	l, ok := LayerOf(module)
	if !ok {
		return Unranked
	}
	return Rank(l*MaxSubs + sub)
}

func noteLock(module string, sub int) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.locks == nil {
		reg.locks = make(map[string]map[int]bool)
	}
	subs := reg.locks[module]
	if subs == nil {
		subs = make(map[int]bool)
		reg.locks[module] = subs
	}
	subs[sub] = true
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

// held tracks, per execution context, the ranked locks currently
// held. A task of the deterministic executor keeps its stack on the
// task (schedsim.Local); off-task, stacks live in a table keyed by
// goroutine id, sharded so the checker does not itself serialize the
// processors it is checking.
const heldShards = 64

type shard struct {
	mu   sync.Mutex
	held map[uint64][]schedsim.HeldLock
}

var shards [heldShards]shard

func shardFor(g uint64) *shard { return &shards[g%heldShards] }

// withHeld runs fn on the calling context's held stack and stores the
// stack fn returns.
func withHeld(fn func([]schedsim.HeldLock) []schedsim.HeldLock) {
	if l := schedsim.Current(); l != nil {
		l.Held = fn(l.Held)
		return
	}
	g := goid.ID()
	s := shardFor(g)
	s.mu.Lock()
	defer s.mu.Unlock()
	stack := fn(s.held[g])
	if len(stack) == 0 {
		delete(s.held, g)
		return
	}
	if s.held == nil {
		s.held = make(map[uint64][]schedsim.HeldLock)
	}
	s.held[g] = stack
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
	m.name = Entry{Module: module, Sub: sub}.Name()
	noteLock(module, sub)
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

// pushHeld checks the acquisition order and records the lock on the
// calling context's held stack. It reports whether an entry was
// pushed (checking on and the lock ranked); a rank violation panics.
func (m *Mutex) pushHeld() bool {
	if !checking.Load() {
		return false
	}
	r := m.Rank()
	if r == Unranked {
		return false
	}
	name := m.Name()
	withHeld(func(stack []schedsim.HeldLock) []schedsim.HeldLock {
		for _, h := range stack {
			if Rank(h.Rank) <= r {
				panic(fmt.Sprintf(
					"lockrank: acquiring %s (rank %d) while holding %s (rank %d): lock acquisition must descend the certification order",
					name, r, h.Name, h.Rank))
			}
		}
		return append(stack, schedsim.HeldLock{Rank: int(r), Name: name})
	})
	return true
}

// popHeld removes the lock's entry from the calling context's held
// stack, innermost first.
func popHeld(name string) {
	withHeld(func(stack []schedsim.HeldLock) []schedsim.HeldLock {
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].Name == name {
				return append(stack[:i], stack[i+1:]...)
			}
		}
		return stack
	})
}

// Lock acquires the mutex. With checking on, acquiring while the
// calling goroutine holds a ranked lock of equal or lower rank panics:
// that acquisition order does not exist in the certified lattice.
func (m *Mutex) Lock() {
	track := m.pushHeld()
	// Under the deterministic executor the acquisition is a yield
	// point and contention parks the task cooperatively; otherwise it
	// is a plain mutex acquire. The rank check above ran either way —
	// the discipline is identical under both executors.
	if !schedsim.LockAcquire(&m.mu, m.Name()) {
		m.mu.Lock()
	}
	m.tracked = track
}

// TryLock acquires the mutex only if it is free, reporting whether it
// did. The rank check runs exactly as for Lock — a try-acquire in an
// order the lattice forbids panics even when the lock happens to be
// free, so the discipline cannot be weakened by polling. A failed try
// is not a yield point: the caller stays runnable and decides itself
// how to wait.
func (m *Mutex) TryLock() bool {
	track := m.pushHeld()
	if !m.mu.TryLock() {
		if track {
			popHeld(m.Name())
		}
		return false
	}
	m.tracked = track
	return true
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

// HeldByCaller returns the names of the ranked locks the calling
// context currently holds, innermost last — a debugging aid.
func HeldByCaller() []string {
	var out []string
	withHeld(func(stack []schedsim.HeldLock) []schedsim.HeldLock {
		for _, h := range stack {
			out = append(out, h.Name)
		}
		return stack
	})
	return out
}
