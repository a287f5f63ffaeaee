// Package vproc implements the virtual processor manager: the bottom
// level of the two-level process implementation that breaks the
// classic dependency loop between processor multiplexing and virtual
// memory.
//
// The manager implements a fixed number of virtual processors whose
// states are always in primary memory (a core segment), so this level
// never uses the virtual memory and depends only on primary memory and
// the hardware processors. A subset of the virtual processors is
// multiplexed among user processes as needed; the remainder are
// permanently bound to the interpretation of kernel modules (the
// virtual memory daemons and the user-process scheduler). Fixing the
// number of processes at this level yields the simplifications Brinch
// Hansen argues for, without wiring down every user process state.
//
// Waiting and notification use the eventcount protocol, together with
// the per-processor wakeup-waiting switch and locked-descriptor-
// address register that prevent a notification from being lost between
// a locked-page-descriptor exception and the wait primitive.
package vproc

import (
	"errors"
	"fmt"

	"multics/internal/coreseg"
	"multics/internal/eventcount"
	"multics/internal/hw"
	"multics/internal/lockrank"
	"multics/internal/trace"
)

// ModuleName is this manager's name in the kernel dependency graph;
// trace events for dispatches and queue messages are attributed to
// it.
const ModuleName = "virtual-processor-manager"

// StateWords is the size of one virtual processor's state block in
// the state core segment.
const StateWords = 8

// Binding describes what a virtual processor is currently
// interpreting.
type Binding int

const (
	// Free: available for multiplexing among user processes.
	Free Binding = iota
	// KernelBound: permanently bound to a kernel module.
	KernelBound
	// UserBound: temporarily carrying a user process.
	UserBound
)

func (b Binding) String() string {
	switch b {
	case Free:
		return "free"
	case KernelBound:
		return "kernel"
	case UserBound:
		return "user"
	default:
		return fmt.Sprintf("binding(%d)", int(b))
	}
}

// ErrNoFreeVP is returned when every multiplexable virtual processor
// is carrying a user process.
var ErrNoFreeVP = errors.New("vproc: no free virtual processor")

// A VP is one virtual processor.
type VP struct {
	id      int
	binding Binding
	module  string // kernel module name when KernelBound
	user    uint64 // user process id when UserBound
	queue   []func()
}

// ID returns the virtual processor number.
func (v *VP) ID() int { return v.id }

// Binding reports the current binding.
func (v *VP) Binding() Binding { return v.binding }

// Module returns the kernel module a KernelBound processor interprets.
func (v *VP) Module() string { return v.module }

// User returns the user process id a UserBound processor carries.
func (v *VP) User() uint64 { return v.user }

// A Manager owns the fixed set of virtual processors.
type Manager struct {
	mu     lockrank.Mutex
	vps    []*VP
	byMod  map[string]*VP
	states *coreseg.Segment
	meter  *hw.CostMeter
	procs  []*hw.Processor
	trace  *trace.Recorder
	// free is the multiplexable processors as a LIFO stack, so
	// acquire and release are O(1) however many processors exist.
	free []*VP
	// freeEC counts releases back to the free pool; idle schedulers
	// await it instead of polling AcquireUser.
	freeEC eventcount.Eventcount
	// dispatches counts work items run, for the performance
	// comparisons.
	dispatches int64
}

// SetTrace routes dispatch and queue-message events to rec (nil
// turns tracing off).
func (m *Manager) SetTrace(rec *trace.Recorder) {
	m.mu.Lock()
	m.trace = rec
	m.mu.Unlock()
	m.freeEC.Trace(rec, ModuleName)
}

// FreeEC returns the eventcount advanced every time a virtual
// processor returns to the free pool. A scheduler that finds no free
// processor reads it before the failed acquire and awaits the next
// value, so an idle processor sleeps instead of spinning — the
// eventcount discipline of the paper applied to the dispatcher
// itself.
func (m *Manager) FreeEC() *eventcount.Eventcount { return &m.freeEC }

// NewManager creates n virtual processors whose state blocks live in
// the core segment states (which must hold n*StateWords words).
func NewManager(n int, states *coreseg.Segment, meter *hw.CostMeter) (*Manager, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vproc: %d virtual processors", n)
	}
	if states == nil || states.Words() < n*StateWords {
		return nil, fmt.Errorf("vproc: state segment too small for %d virtual processors", n)
	}
	m := &Manager{states: states, meter: meter, byMod: make(map[string]*VP)}
	m.mu.Init(ModuleName)
	for i := 0; i < n; i++ {
		vp := &VP{id: i}
		m.vps = append(m.vps, vp)
		if err := m.saveState(vp); err != nil {
			return nil, err
		}
	}
	// The free stack is seeded in reverse so pops hand out the lowest
	// numbered processor first, matching the original scan order.
	for i := n - 1; i >= 0; i-- {
		m.free = append(m.free, m.vps[i])
	}
	return m, nil
}

// saveState writes the vp's state block into the core segment: the
// point of the two-level design is that these states are always in
// primary memory. Called with or without m.mu; the segment is
// internally bounds-checked.
func (m *Manager) saveState(v *VP) error {
	base := v.id * StateWords
	if err := m.states.Write(base, hw.Word(v.binding)); err != nil {
		return err
	}
	if err := m.states.Write(base+1, hw.Word(v.user).Masked()); err != nil {
		return err
	}
	return m.states.Write(base+2, hw.Word(len(v.queue)))
}

// N reports the fixed number of virtual processors.
func (m *Manager) N() int { return len(m.vps) }

// VP returns virtual processor i.
func (m *Manager) VP(i int) (*VP, error) {
	if i < 0 || i >= len(m.vps) {
		return nil, fmt.Errorf("vproc: no virtual processor %d", i)
	}
	return m.vps[i], nil
}

// BindKernel permanently binds a free virtual processor to the named
// kernel module and returns it. Kernel bindings are made at system
// initialization and never released.
func (m *Manager) BindKernel(module string) (*VP, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byMod[module]; ok {
		return nil, fmt.Errorf("vproc: module %s already has a virtual processor", module)
	}
	v := m.popFree()
	if v == nil {
		return nil, ErrNoFreeVP
	}
	v.binding = KernelBound
	v.module = module
	m.byMod[module] = v
	return v, m.saveState(v)
}

// popFree takes the next free virtual processor off the stack, nil
// when none remain. Caller holds m.mu.
func (m *Manager) popFree() *VP {
	if len(m.free) == 0 {
		return nil
	}
	v := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	return v
}

// Enqueue hands a work item to the virtual processor bound to the
// named kernel module. The transfer costs one inter-process message.
func (m *Manager) Enqueue(module string, work func()) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.byMod[module]
	if !ok {
		return fmt.Errorf("vproc: no virtual processor bound to module %s", module)
	}
	m.meter.Add(hw.CycIPC)
	if m.trace != nil {
		m.trace.Emit(trace.Event{Kind: trace.EvIPC, Module: ModuleName, Cost: hw.CycIPC, Arg0: int64(v.id)})
	}
	v.queue = append(v.queue, work)
	return m.saveState(v)
}

// Pending reports the number of queued work items across all kernel
// virtual processors.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, v := range m.vps {
		n += len(v.queue)
	}
	return n
}

// RunPending dispatches queued work co-operatively, in virtual
// processor order, until every queue is empty (work may enqueue more
// work), and returns the number of items run. Each dispatch costs
// CycDispatch.
func (m *Manager) RunPending() int {
	ran := 0
	for {
		var work func()
		var owner *VP
		m.mu.Lock()
		for _, v := range m.vps {
			if len(v.queue) > 0 {
				work = v.queue[0]
				v.queue = v.queue[1:]
				owner = v
				break
			}
		}
		tr := m.trace
		if owner != nil {
			m.meter.Add(hw.CycDispatch)
			m.dispatches++
			if m.trace != nil {
				m.trace.Emit(trace.Event{Kind: trace.EvDispatch, Module: ModuleName, Cost: hw.CycDispatch, Arg0: int64(owner.id)})
			}
			_ = m.saveState(owner)
		}
		m.mu.Unlock()
		if work == nil {
			return ran
		}
		tr.BeginSpan(trace.SpanVPDispatch, ModuleName, int64(owner.id))
		work()
		tr.EndSpan(trace.SpanVPDispatch)
		ran++
	}
}

// Dispatches reports the total number of work items dispatched.
func (m *Manager) Dispatches() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dispatches
}

// AcquireUser multiplexes a free virtual processor onto the given user
// process. O(1): the free pool is a stack, not a scan.
func (m *Manager) AcquireUser(user uint64) (*VP, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.popFree()
	if v == nil {
		return nil, ErrNoFreeVP
	}
	v.binding = UserBound
	v.user = user
	m.meter.Add(hw.CycDispatch)
	if m.trace != nil {
		m.trace.Emit(trace.Event{Kind: trace.EvDispatch, Module: ModuleName, Cost: hw.CycDispatch, Arg0: int64(v.id), Arg1: int64(user)})
	}
	return v, m.saveState(v)
}

// ReleaseUser returns a user-bound virtual processor to the free pool
// and advances the free-pool eventcount, waking schedulers that went
// to sleep on ErrNoFreeVP.
func (m *Manager) ReleaseUser(v *VP) error {
	m.mu.Lock()
	if v.binding != UserBound {
		m.mu.Unlock()
		return fmt.Errorf("vproc: release of %v virtual processor %d", v.binding, v.id)
	}
	v.binding = Free
	v.user = 0
	m.free = append(m.free, v)
	err := m.saveState(v)
	m.mu.Unlock()
	// Advance outside the lock: waiters woken by the eventcount call
	// straight back into AcquireUser.
	m.freeEC.Advance()
	return err
}

// FreeVPs reports how many virtual processors are available for user
// multiplexing.
func (m *Manager) FreeVPs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.free)
}

// Audit checks the manager's invariants: the module index and the
// virtual processor bindings must agree, and every state block in the
// core segment must match the in-memory state.
func (m *Manager) Audit() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var bad []string
	for mod, v := range m.byMod {
		if v.binding != KernelBound || v.module != mod {
			bad = append(bad, fmt.Sprintf("module %s indexed to vp %d which is %v/%q", mod, v.id, v.binding, v.module))
		}
	}
	onFree := make(map[int]bool, len(m.free))
	for _, v := range m.free {
		if v.binding != Free {
			bad = append(bad, fmt.Sprintf("vp %d on the free stack but bound %v", v.id, v.binding))
		}
		if onFree[v.id] {
			bad = append(bad, fmt.Sprintf("vp %d on the free stack twice", v.id))
		}
		onFree[v.id] = true
	}
	for _, v := range m.vps {
		if v.binding == Free && !onFree[v.id] {
			bad = append(bad, fmt.Sprintf("vp %d free but missing from the free stack", v.id))
		}
		if v.binding == KernelBound {
			if m.byMod[v.module] != v {
				bad = append(bad, fmt.Sprintf("vp %d bound to %q but not indexed", v.id, v.module))
			}
		}
		w, err := m.states.Read(v.id * StateWords)
		if err != nil {
			bad = append(bad, fmt.Sprintf("vp %d state block unreadable: %v", v.id, err))
			continue
		}
		if Binding(w) != v.binding {
			bad = append(bad, fmt.Sprintf("vp %d state block says %v, manager says %v", v.id, Binding(w), v.binding))
		}
	}
	return bad
}

// RegisterProcessor makes a real (simulated) processor known to the
// notification machinery so its wakeup-waiting switch can be set.
func (m *Manager) RegisterProcessor(p *hw.Processor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.procs = append(m.procs, p)
}

// Wait is the wait primitive of the virtual processor manager: it
// blocks until ec reaches v. If proc is non-nil its wakeup-waiting
// switch is honoured: a notification that arrived between the
// locked-descriptor exception and this call makes Wait return
// immediately instead of sleeping through it.
func (m *Manager) Wait(proc *hw.Processor, ec *eventcount.Eventcount, v uint64) uint64 {
	if proc != nil && proc.ClearWakeupWaiting() {
		return ec.Read()
	}
	return ec.Await(v)
}

// Notify advances ec, waking its waiters, and sets the wakeup-waiting
// switch of every registered processor whose locked-descriptor-address
// register names (seg, page) — covering a processor that faulted but
// has not yet reached the wait primitive.
func (m *Manager) Notify(ec *eventcount.Eventcount, seg, page int) uint64 {
	// Registration only appends, so the slice read under the lock stays
	// valid after it is released.
	m.mu.Lock()
	procs := m.procs
	m.mu.Unlock()
	for _, p := range procs {
		if s, pg := p.LockedDescriptor(); s == seg && pg == page {
			p.SetWakeupWaiting()
		}
	}
	return ec.Advance()
}
