// Package uproc implements the user process manager: the top level of
// the two-level process implementation.
//
// The bottom level (package vproc) implements a fixed number of
// virtual processors whose states are always in primary memory. This
// level implements an arbitrary number of user processes whose states
// are stored in ordinary virtual-memory segments, multiplexing a
// subset of the virtual processors among them. Fixing the number of
// processes at the bottom buys Brinch Hansen's simplifications; paying
// the process-state storage through the virtual memory at the top
// avoids wiring down primary memory for the maximum process count.
//
// The complication the paper credits Reed with solving is upward
// event communication: events discovered by low-level virtual
// processors must be signalled to user processes whose states are, by
// design, not guaranteed to be in real memory at the discoverer's
// level. The solution is a special real-memory message queue between
// the two processor multiplexers, paired with eventcount
// synchronization so the discoverer of an event needs no knowledge of
// the identity of the processes awaiting it.
//
// The scheduling plane is built to survive storms of tens of
// thousands of processes: the process table is one map under one
// lock, held for one map operation at a time, the ready set is one
// intrusive FIFO with O(1) enqueue/dequeue that every scheduler
// worker serves, and idle schedulers block on eventcounts instead of
// polling. As in the paper's design there are no
// priorities: every ready process waits its turn. The locks split
// the manager's certification layer into sub-ranks, acquired
// strictly downward:
//
//	process table (pid -> process map)
//	> per-process lock (state, bindings)
//	> ready queue (intrusive ready links)
//	> real-memory message queue
package uproc

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"multics/internal/aim"
	"multics/internal/coreseg"
	"multics/internal/eventcount"
	"multics/internal/hw"
	"multics/internal/knownseg"
	"multics/internal/lockrank"
	"multics/internal/schedsim"
	"multics/internal/segment"
	"multics/internal/trace"
	"multics/internal/vproc"
)

// ModuleName is this manager's name in the kernel dependency graph;
// trace events for process swaps and queue messages are attributed
// to it.
const ModuleName = "user-process-manager"

// SchedulerModule is the kernel module name of the user-process
// scheduler's dedicated virtual processor.
const SchedulerModule = "user-scheduler"

// MsgWords is the size of one message in the real-memory queue.
const MsgWords = 4

// The manager's certification layer is split into sub-ranks; a holder
// of one lock may only acquire strictly lower sub-ranks.
const (
	subQueue    = 0 // real-memory message queue
	subRunQueue = 1 // the ready queue
	subProc     = 2 // per-process locks
	subTable    = 3 // the process table
)

// State is a user process's scheduling state.
type State int

const (
	// Ready: awaiting a virtual processor.
	Ready State = iota
	// Running: bound to a virtual processor.
	Running
	// Blocked: awaiting an eventcount.
	Blocked
	// Dead: destroyed.
	Dead
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrNoReady is returned by Dispatch when every live process is
// running, blocked, or dead: there is nothing to schedule.
var ErrNoReady = errors.New("uproc: no ready process")

// ErrNotRunning is returned (wrapped) by Preempt and Block when the
// process is not bound to a virtual processor.
var ErrNotRunning = errors.New("uproc: process not running")

// A Process is one user process.
type Process struct {
	id        uint64
	principal string
	label     aim.Label
	dt        *hw.DescriptorTable
	kst       *knownseg.KST
	// stateUID is the virtual-memory segment holding the process
	// state — deliberately NOT wired memory.
	stateUID uint64

	// pmu orders every mutation of this process's scheduling state.
	// It ranks above the ready-queue lock, so a holder can enqueue,
	// and below the process-table lock.
	pmu lockrank.Mutex

	state State
	vp    *vproc.VP
	// epoch counts dispatches and destructions; an executor preempting
	// after running a body quotes the epoch it dispatched, so a process
	// the body blocked and another CPU re-dispatched, or one destroyed
	// meanwhile, is not torn down twice. It carries over when the record
	// is reused.
	epoch uint64
	// gen counts the record's incarnations: Destroy moves it on. It is
	// written under both pmu and the ready-queue lock and read under
	// either, so a dispatcher that popped the record can tell, under
	// pmu, whether it still holds the incarnation it popped.
	gen uint64
	// await is the eventcount/value pair a blocked process waits on.
	await      *eventcount.Eventcount
	awaitValue uint64
	// wakePending is the wakeup-waiting switch: a targeted wakeup
	// delivered while the process was not blocked is remembered
	// here, and the next awaitless Block consumes it instead of
	// parking forever.
	wakePending bool

	// next/prev/queued are the intrusive ready-queue links, protected
	// by the ready queue's lock, not pmu.
	next, prev *Process
	queued     bool

	// createdCycle and firstRunCycle bracket the time-to-first-
	// quantum latency the storm benchmark reports; firstRunCycle is
	// -1 until the first dispatch, which stores it under pmu. It is
	// atomic so a report can read it without the lock.
	createdCycle  int64
	firstRunCycle atomic.Int64

	// cpu accumulates simulated cycles consumed, for accounting.
	cpu int64
}

// ID returns the process identifier.
func (p *Process) ID() uint64 { return p.id }

// Principal returns the authenticated person.project.
func (p *Process) Principal() string { return p.principal }

// Label returns the process's AIM label (its clearance for this
// session).
func (p *Process) Label() aim.Label { return p.label }

// State returns the scheduling state.
func (p *Process) State() State {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.state
}

// DT returns the process's descriptor table (its address space).
func (p *Process) DT() *hw.DescriptorTable { return p.dt }

// KST returns the process's known segment table.
func (p *Process) KST() *knownseg.KST { return p.kst }

// StateSegment returns the UID of the virtual-memory segment holding
// the process state.
func (p *Process) StateSegment() uint64 { return p.stateUID }

// AddCPU accrues simulated cycles to the process's account.
func (p *Process) AddCPU(n int64) { p.cpu += n }

// CPU reports accumulated simulated cycles.
func (p *Process) CPU() int64 { return p.cpu }

// FirstRunCycle reports the simulated cycle of the process's first
// dispatch, -1 if it has never run; CreatedCycle the cycle it was
// created. Their difference is the time to first quantum.
func (p *Process) FirstRunCycle() int64 { return p.firstRunCycle.Load() }

// CreatedCycle reports the simulated cycle the process was created.
func (p *Process) CreatedCycle() int64 { return p.createdCycle }

// A Message is one entry in the real-memory queue between the
// processor multiplexing levels: an event discovered at the bottom
// that concerns a user process.
type Message struct {
	// Kind is a small code (wakeup, I/O done, quota warning...).
	Kind int
	// Process is the concerned user process id, 0 for broadcast.
	Process uint64
	// Datum is event-specific.
	Datum uint64
}

// Queue is the real-memory message queue: a bounded ring in a core
// segment, so posting never touches the virtual memory. An
// eventcount counts posted messages, so the upper-level multiplexer
// awaits it without the poster knowing who is listening.
type Queue struct {
	mu     lockrank.Mutex
	seg    *coreseg.Segment
	cap    int
	head   int
	n      int
	posted eventcount.Eventcount
	meter  *hw.CostMeter
	trace  *trace.Recorder
}

// ErrQueueFull is returned when the fixed-size real-memory queue
// overflows; the poster must retry after the upper level drains.
var ErrQueueFull = errors.New("uproc: real-memory message queue full")

// NewQueue builds a message queue in the given core segment. Posts,
// and the posted eventcount's advances, go to rec (nil when
// untraced).
func NewQueue(seg *coreseg.Segment, meter *hw.CostMeter, rec *trace.Recorder) (*Queue, error) {
	if seg == nil || seg.Words() < MsgWords {
		return nil, errors.New("uproc: queue segment too small")
	}
	q := &Queue{seg: seg, cap: seg.Words() / MsgWords, meter: meter, trace: rec}
	q.posted.Trace(rec, ModuleName)
	// The queue lock takes the layer's low sub-rank: the manager may
	// post to the queue, but the queue never calls up into the
	// manager.
	q.mu.InitSub(ModuleName, subQueue)
	return q, nil
}

// Post appends a message; it runs entirely in real memory, so any
// virtual processor may call it regardless of what is paged in.
func (q *Queue) Post(m Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == q.cap {
		return ErrQueueFull
	}
	slot := (q.head + q.n) % q.cap
	base := slot * MsgWords
	if err := q.seg.Write(base, hw.Word(m.Kind)); err != nil {
		return err
	}
	if err := q.seg.Write(base+1, hw.Word(m.Process).Masked()); err != nil {
		return err
	}
	if err := q.seg.Write(base+2, hw.Word(m.Datum).Masked()); err != nil {
		return err
	}
	q.n++
	q.meter.Add(ModuleName, hw.CycIPC)
	if q.trace != nil {
		q.trace.Emit(trace.Event{Kind: trace.EvIPC, Module: ModuleName, Arg0: int64(m.Kind), Arg1: int64(m.Process)})
	}
	q.posted.Advance()
	return nil
}

// Drain removes and returns all queued messages.
func (q *Queue) Drain() ([]Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Message
	for ; q.n > 0; q.n-- {
		base := q.head * MsgWords
		kind, err := q.seg.Read(base)
		if err != nil {
			return out, err
		}
		proc, err := q.seg.Read(base + 1)
		if err != nil {
			return out, err
		}
		datum, err := q.seg.Read(base + 2)
		if err != nil {
			return out, err
		}
		out = append(out, Message{Kind: int(kind), Process: uint64(proc), Datum: uint64(datum)})
		q.head = (q.head + 1) % q.cap
	}
	return out, nil
}

// SchedStats is the scheduler's own meter block.
type SchedStats struct {
	// Dispatches counts successful process dispatches.
	Dispatches int64
	// Steals and Migrations always read 0: one ready queue serves
	// every processor, so nothing is stolen or re-homed. They remain
	// only because the benchmark's per-layer report reads them.
	Steals     int64
	Migrations int64
	// Wakeups counts blocked processes made ready by event delivery.
	Wakeups int64
	// MaxQueueDepth is the deepest the ready queue has been.
	MaxQueueDepth int
}

// A Manager is the user process manager and two-level scheduler top.
type Manager struct {
	vps   *vproc.Manager
	segs  *segment.Manager
	ksm   *knownseg.Manager
	queue *Queue
	meter *hw.CostMeter
	trace *trace.Recorder

	// KSTBase/KSTSize shape each process's address space.
	KSTBase int
	KSTSize int
	// StatePack is where process-state segments are created.
	StatePack string
	// StateCell is the quota cell charged for process states.
	StateCell segment.CellRef

	nextPID atomic.Uint64
	// procs maps each live pid to its process, under procsMu.
	procsMu lockrank.Mutex
	procs   map[uint64]*Process

	// ready is the one FIFO of ready processes every worker serves.
	ready runQueue

	// readyEC is advanced on every enqueue, so idle schedulers can
	// await work instead of polling.
	readyEC eventcount.Eventcount

	// running counts processes currently bound to virtual
	// processors; the idle-wait path uses it to prove a future
	// free-pool advance exists before sleeping.
	running atomic.Int64

	dispatches atomic.Int64
	wakeups    atomic.Int64

	// spare is the free list of destroyed process records, descriptor
	// tables included, under spareMu: a plain mutex, so recycling adds
	// no scheduling decision. It grows to the peak process count and
	// never shrinks.
	spareMu sync.Mutex
	spare   []*Process

	// sparePhase is the state of the last RunQuantumWith call to
	// finish, reused by the next.
	sparePhase atomic.Pointer[quantumPhase]
}

// NewManager returns a user process manager multiplexing vps and
// posting low-level events through queue. Process-swap, scheduling
// and quantum events go to rec (nil when untraced).
func NewManager(vps *vproc.Manager, segs *segment.Manager, ksm *knownseg.Manager, queue *Queue, meter *hw.CostMeter, rec *trace.Recorder) *Manager {
	m := &Manager{
		vps:     vps,
		segs:    segs,
		ksm:     ksm,
		queue:   queue,
		meter:   meter,
		trace:   rec,
		KSTBase: 8,
		KSTSize: 64,
		procs:   make(map[uint64]*Process),
	}
	m.procsMu.InitSub(ModuleName, subTable)
	m.ready.mu.InitSub(ModuleName, subRunQueue)
	m.readyEC.Trace(rec, ModuleName)
	return m
}

// Create makes a new user process for the authenticated principal at
// the given AIM label. Its state segment lives in the virtual memory,
// charged like any other segment. The process starts Ready at the
// back of the ready queue.
func (m *Manager) Create(principal string, label aim.Label) (*Process, error) {
	if principal == "" {
		return nil, errors.New("uproc: empty principal")
	}
	pid := m.nextPID.Add(1)

	p, err := m.record()
	if err != nil {
		return nil, err
	}
	stateUID, err := m.newStateSegment(pid)
	if err != nil {
		m.ksm.DropKST(p.kst)
		m.recycle(p)
		return nil, err
	}
	// The identity is written under pmu: a stale holder of a reused
	// record checks it there (see wakeTargeted).
	p.pmu.Lock()
	p.id, p.principal, p.label = pid, principal, label
	p.stateUID = stateUID
	p.createdCycle, p.cpu = m.meter.Cycles(), 0
	p.pmu.Unlock()
	p.firstRunCycle.Store(-1)
	m.procsMu.Lock()
	m.procs[pid] = p
	m.procsMu.Unlock()
	p.pmu.Lock()
	// The state is written under pmu: a stale holder of a reused
	// record reads it there.
	p.state = Ready
	m.enqueue(p, false)
	p.pmu.Unlock()
	return p, nil
}

// newStateSegment creates, activates and grows the state segment of
// process pid, storing the pid in its first word: an ordinary,
// pageable, quota-charged segment. A creation that fails part way
// deletes the segment again, deactivating it if it got that far.
func (m *Manager) newStateSegment(pid uint64) (uint64, error) {
	uid := m.segs.NewUID()
	addr, err := m.segs.Create(m.StatePack, uid, false, m.StateCell.UID)
	if err != nil {
		return 0, err
	}
	if _, err = m.segs.Activate(uid, addr, m.StateCell.Cell, m.StateCell.Has); err == nil {
		if _, err = m.segs.Grow(uid, 0, 0, 0); err == nil {
			if err = m.segs.WriteWord(uid, 0, hw.Word(pid).Masked()); err == nil {
				return uid, nil
			}
		}
	}
	if derr := m.segs.Delete(uid, addr, m.StateCell.Cell, m.StateCell.Has); derr != nil {
		err = errors.Join(err, derr)
	}
	return 0, err
}

// record returns a process record for Create, with its address space
// and a listed, empty KST: a destroyed one from the free list, or a
// new one. A reused record brings the tables it had: Destroy reset
// its descriptor table, and its KST, which nothing else can reach
// since Destroy dropped it, is emptied and listed again here.
func (m *Manager) record() (*Process, error) {
	m.spareMu.Lock()
	n := len(m.spare)
	var p *Process
	if n > 0 {
		p = m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
	}
	m.spareMu.Unlock()
	if p != nil {
		if err := m.ksm.ReuseKST(p.kst, m.KSTBase, m.KSTSize); err != nil {
			return nil, err
		}
		return p, nil
	}
	kst, err := m.ksm.NewKST(m.KSTBase, m.KSTSize)
	if err != nil {
		return nil, err
	}
	p = &Process{state: Dead, dt: hw.NewDescriptorTable(m.KSTBase + m.KSTSize), kst: kst}
	p.pmu.InitSub(ModuleName, subProc)
	return p, nil
}

// enqueue puts p on the ready queue (front prepends). Caller holds
// p.pmu.
func (m *Manager) enqueue(p *Process, front bool) {
	m.ready.mu.Lock()
	m.ready.push(p, front)
	m.ready.mu.Unlock()
	m.readyEC.Advance()
}

// Lookup returns the process with the given id.
func (m *Manager) Lookup(pid uint64) (*Process, error) {
	m.procsMu.Lock()
	p, ok := m.procs[pid]
	m.procsMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("uproc: no process %d", pid)
	}
	return p, nil
}

// Count reports the number of live processes — arbitrary, unlike the
// fixed virtual-processor count below.
func (m *Manager) Count() int {
	m.procsMu.Lock()
	defer m.procsMu.Unlock()
	return len(m.procs)
}

// allPIDs returns every registered process id in ascending order, so
// broadcast wakeups touch processes in a deterministic order.
func (m *Manager) allPIDs() []uint64 {
	m.procsMu.Lock()
	pids := make([]uint64, 0, len(m.procs))
	for pid := range m.procs {
		pids = append(pids, pid)
	}
	m.procsMu.Unlock()
	slices.Sort(pids)
	return pids
}

// SchedStats returns the scheduler's counters: dispatch volume,
// wakeups, and queue depth.
func (m *Manager) SchedStats() SchedStats {
	m.ready.mu.Lock()
	depth := m.ready.maxDepth
	m.ready.mu.Unlock()
	return SchedStats{
		Dispatches:    m.dispatches.Load(),
		Wakeups:       m.wakeups.Load(),
		MaxQueueDepth: depth,
	}
}

// Dispatch binds the longest-waiting ready process to a free virtual
// processor. It also returns the dispatch epoch, which
// preemptIfCurrent uses to tear down exactly the dispatch it made.
func (m *Manager) Dispatch() (*Process, uint64, error) {
	for {
		m.ready.mu.Lock()
		p := m.ready.pop()
		var gen uint64
		if p != nil {
			gen = p.gen
		}
		m.ready.mu.Unlock()
		if p == nil {
			return nil, 0, ErrNoReady
		}
		// Claim: the pop made p invisible to other dispatchers, but a
		// concurrent Destroy can still have killed it, and a Create
		// reused the record for another process.
		p.pmu.Lock()
		if p.gen != gen || p.state != Ready {
			p.pmu.Unlock()
			continue
		}
		pid, stateUID := p.id, p.stateUID
		p.pmu.Unlock()

		vp, err := m.vps.AcquireUser(pid)
		if err != nil {
			m.requeueFront(p, gen)
			return nil, 0, err
		}
		// Touch the state segment (a real virtual-memory reference) and
		// charge the swap cost.
		if _, err := m.segs.EnsureResident(stateUID, 0); err != nil {
			_ = m.vps.ReleaseUser(vp)
			if m.destroyed(p, gen) {
				// A concurrent Destroy deleted the state segment
				// after the claim: skip the process.
				continue
			}
			m.requeueFront(p, gen)
			return nil, 0, err
		}
		m.meter.Add(ModuleName, hw.CycProcessSwap)

		p.pmu.Lock()
		if p.gen != gen || p.state != Ready {
			p.pmu.Unlock()
			_ = m.vps.ReleaseUser(vp)
			continue
		}
		p.state = Running
		p.vp = vp
		p.epoch++
		epoch := p.epoch
		if p.firstRunCycle.Load() < 0 {
			p.firstRunCycle.Store(m.meter.Cycles())
		}
		p.pmu.Unlock()
		m.running.Add(1)
		m.dispatches.Add(1)
		if m.trace != nil {
			// Arg1 = 0: a state load through the virtual memory.
			m.trace.Emit(trace.Event{Kind: trace.EvProcessSwap, Module: ModuleName, Arg0: int64(pid)})
		}
		return p, epoch, nil
	}
}

// destroyed reports whether incarnation gen of p has been destroyed.
func (m *Manager) destroyed(p *Process, gen uint64) bool {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.gen != gen || p.state == Dead
}

// requeueFront returns a claimed-but-undispatched process, incarnation
// gen, to the front of the ready queue, so a transient failure (no
// free virtual processor) does not cost it its place in line.
func (m *Manager) requeueFront(p *Process, gen uint64) {
	p.pmu.Lock()
	if p.gen == gen && p.state == Ready {
		m.enqueue(p, true)
	}
	p.pmu.Unlock()
}

// Preempt returns a running process to the ready queue, storing its
// state back through the virtual memory.
func (m *Manager) Preempt(p *Process) error {
	return m.unbind(p, Ready)
}

// preemptIfCurrent preempts p only if it is still running the
// dispatch identified by epoch; a no-op (nil) otherwise. Executors
// use it so a body that blocked its process — possibly already
// re-dispatched by another CPU — is not torn down twice.
func (m *Manager) preemptIfCurrent(p *Process, epoch uint64) error {
	p.pmu.Lock()
	if p.epoch != epoch || p.state != Running || p.vp == nil {
		p.pmu.Unlock()
		return nil
	}
	vp := p.vp
	p.vp = nil
	p.state = Ready
	m.enqueue(p, false)
	u := p.unbound()
	p.pmu.Unlock()
	return m.finishUnbind(u, vp, Ready)
}

// Block parks a running process until ec reaches v. A nil ec blocks
// until any wakeup message addressed to the process arrives. The
// rescue at the end closes the lost-wakeup window: an event delivered
// between the state store and this check wakes the process here
// instead of never.
func (m *Manager) Block(p *Process, ec *eventcount.Eventcount, v uint64) error {
	schedsim.Yield(schedsim.PointMark, "uproc-block")
	p.pmu.Lock()
	p.await = ec
	p.awaitValue = v
	pid := p.id
	p.pmu.Unlock()
	if err := m.unbind(p, Blocked); err != nil {
		return err
	}
	// Once unbound, the process can be destroyed and its record reused:
	// what follows acts only on process pid.
	if ec != nil {
		if _, ok := ec.TryAwait(v); ok {
			m.tryWake(p, pid)
		}
		return nil
	}
	// Wakeup-waiting rescue: a targeted wakeup delivered while the
	// process was still running could not unblock it then; the switch
	// remembers it, and consuming it here closes the lost-wakeup
	// window between the delivery scan and this block.
	p.pmu.Lock()
	if p.id == pid && p.wakePending && p.state == Blocked {
		p.wakePending = false
		p.state = Ready
		p.await = nil
		m.enqueue(p, false)
		p.pmu.Unlock()
		m.wakeups.Add(1)
		return nil
	}
	p.pmu.Unlock()
	return nil
}

func (m *Manager) unbind(p *Process, to State) error {
	p.pmu.Lock()
	if p.state != Running || p.vp == nil {
		st := p.state
		p.pmu.Unlock()
		return fmt.Errorf("uproc: process %d is %v: %w", p.id, st, ErrNotRunning)
	}
	vp := p.vp
	p.vp = nil
	p.state = to
	if to == Ready {
		m.enqueue(p, false)
	}
	u := p.unbound()
	p.pmu.Unlock()
	return m.finishUnbind(u, vp, to)
}

// An unbinding is what finishUnbind needs of a process it has just
// unbound, read under pmu: once pmu is released a concurrent Destroy
// may recycle the record.
type unbinding struct {
	p        *Process
	id       uint64
	stateUID uint64
	gen      uint64
}

// unbound snapshots p for finishUnbind. Caller holds p.pmu.
func (p *Process) unbound() unbinding {
	return unbinding{p: p, id: p.id, stateUID: p.stateUID, gen: p.gen}
}

// finishUnbind stores the state word back through the virtual memory,
// meters the swap, and frees the virtual processor (which advances
// the free-pool eventcount, waking idle schedulers).
func (m *Manager) finishUnbind(u unbinding, vp *vproc.VP, to State) error {
	m.running.Add(-1)
	if err := m.segs.WriteWord(u.stateUID, 1, hw.Word(to)); err != nil {
		if m.destroyed(u.p, u.gen) {
			// A concurrent Destroy deleted the state segment after
			// the unbind: there is no state left to store.
			return m.vps.ReleaseUser(vp)
		}
		return err
	}
	m.meter.Add(ModuleName, hw.CycProcessSwap)
	if m.trace != nil {
		// Arg1 = 1: a state store through the virtual memory.
		m.trace.Emit(trace.Event{Kind: trace.EvProcessSwap, Module: ModuleName, Arg0: int64(u.id), Arg1: 1})
	}
	return m.vps.ReleaseUser(vp)
}

// tryWake moves process pid, blocked in record p with its await
// satisfied, to Ready, reporting whether it woke. A record since
// reused for another process is left alone.
func (m *Manager) tryWake(p *Process, pid uint64) bool {
	p.pmu.Lock()
	if p.id != pid || p.state != Blocked {
		p.pmu.Unlock()
		return false
	}
	if p.await != nil {
		if _, ok := p.await.TryAwait(p.awaitValue); !ok {
			p.pmu.Unlock()
			return false
		}
	}
	p.state = Ready
	p.await = nil
	p.wakePending = false
	m.enqueue(p, false)
	p.pmu.Unlock()
	m.wakeups.Add(1)
	return true
}

// wakeTargeted delivers a wakeup addressed specifically to p. A
// blocked process wakes by the tryWake rules; one that is running or
// ready keeps the wakeup-waiting switch set instead, so its next
// awaitless Block finds the wakeup rather than losing it. The whole
// decision sits under the process lock — delivery and Block cannot
// interleave between the state check and the flag. Process pid is
// the wakeup's addressee: a record since reused for another process
// gets nothing.
func (m *Manager) wakeTargeted(p *Process, pid uint64) bool {
	p.pmu.Lock()
	if p.id != pid {
		p.pmu.Unlock()
		return false
	}
	if p.state == Blocked && p.await == nil {
		p.state = Ready
		p.wakePending = false
		m.enqueue(p, false)
		p.pmu.Unlock()
		m.wakeups.Add(1)
		return true
	}
	if p.state == Blocked {
		p.pmu.Unlock()
		// Blocked on an eventcount: the count decides, as before.
		return m.tryWake(p, pid)
	}
	if p.state != Dead {
		p.wakePending = true
	}
	p.pmu.Unlock()
	return false
}

// Wakeup posts a wakeup message for a process into the real-memory
// queue. It is callable from the bottom level: it touches only wired
// memory.
func (m *Manager) Wakeup(pid uint64, datum uint64) error {
	return m.queue.Post(Message{Kind: 1, Process: pid, Datum: datum})
}

// DeliverEvents drains the real-memory queue and unblocks every
// blocked process whose awaited eventcount has been reached, moving
// it to the ready queue. The scheduler's virtual processor runs this;
// it returns the number of processes made ready. Targeted messages
// cost one table lookup; broadcasts sweep the pid space in
// ascending order, so delivery order is deterministic.
func (m *Manager) DeliverEvents() (int, error) {
	msgs, err := m.queue.Drain()
	if err != nil {
		return 0, err
	}
	if len(msgs) == 0 {
		return 0, nil
	}
	schedsim.Yield(schedsim.PointMark, "uproc-deliver")
	woken := 0
	for _, msg := range msgs {
		if msg.Process != 0 {
			p, err := m.Lookup(msg.Process)
			if err != nil {
				continue
			}
			if m.wakeTargeted(p, msg.Process) {
				woken++
			}
			continue
		}
		for _, pid := range m.allPIDs() {
			p, err := m.Lookup(pid)
			if err != nil {
				continue
			}
			if m.tryWake(p, pid) {
				woken++
			}
		}
	}
	return woken, nil
}

// Audit checks the manager's invariants: the ready queue's list holds
// exactly its recorded size, each table entry holds the record of its
// own pid, running processes hold exactly one user-bound virtual
// processor and are not queued, ready processes appear on the ready
// queue, and nothing dead lingers. No record on
// the free list may be reachable from the process table, the ready
// queue, the list of live KSTs or a segment's connection list.
func (m *Manager) Audit() []string {
	var bad []string
	onQueue := make(map[uint64]bool)
	live := make(map[*Process]string)
	rq := &m.ready
	rq.mu.Lock()
	n := 0
	for p := rq.head; p != nil && n <= rq.size; p = p.next {
		onQueue[p.id] = true
		live[p] = "the ready queue"
		n++
	}
	if n != rq.size {
		bad = append(bad, fmt.Sprintf("ready queue walk reaches %d processes, size %d", n, rq.size))
	}
	rq.mu.Unlock()
	// The table is copied out under its lock and each record checked
	// under its own: no path nests the table lock over a process lock.
	m.procsMu.Lock()
	table := maps.Clone(m.procs)
	m.procsMu.Unlock()
	for pid, p := range table {
		live[p] = "the process table"
		p.pmu.Lock()
		if p.id != pid {
			bad = append(bad, fmt.Sprintf("process table entry %d holds the record of process %d", pid, p.id))
		}
		switch p.state {
		case Running:
			if onQueue[pid] {
				bad = append(bad, fmt.Sprintf("process %d running but queued", pid))
			}
			if p.vp == nil {
				bad = append(bad, fmt.Sprintf("process %d running without a virtual processor", pid))
			} else if p.vp.Binding() != vproc.UserBound || p.vp.User() != pid {
				bad = append(bad, fmt.Sprintf("process %d running on vp %d bound to %v/%d", pid, p.vp.ID(), p.vp.Binding(), p.vp.User()))
			}
		case Ready:
			if !onQueue[pid] {
				bad = append(bad, fmt.Sprintf("process %d ready but not queued", pid))
			}
			if p.vp != nil {
				bad = append(bad, fmt.Sprintf("process %d ready but still holds vp %d", pid, p.vp.ID()))
			}
		case Blocked:
			if p.vp != nil {
				bad = append(bad, fmt.Sprintf("process %d blocked but still holds vp %d", pid, p.vp.ID()))
			}
		case Dead:
			bad = append(bad, fmt.Sprintf("process %d dead but registered", pid))
		}
		p.pmu.Unlock()
	}
	m.spareMu.Lock()
	spare := slices.Clone(m.spare)
	m.spareMu.Unlock()
	for i, p := range spare {
		p.pmu.Lock()
		pid := p.id
		p.pmu.Unlock()
		if where, ok := live[p]; ok {
			bad = append(bad, fmt.Sprintf("free process record %d (last process %d) is on %s", i, pid, where))
		}
		if m.ksm.Listed(p.kst) {
			bad = append(bad, fmt.Sprintf("free process record %d (last process %d) has its KST on the live list", i, pid))
		}
		if m.segs.Connected(p.dt) {
			bad = append(bad, fmt.Sprintf("free process record %d (last process %d) has its address space on a connection list", i, pid))
		}
	}
	return bad
}

// Destroy ends a process, releasing its virtual processor, state
// segment and KST. Unless a processor was running it, the record goes
// on the free list for the next Create: the caller must not use p
// again.
func (m *Manager) Destroy(p *Process) error {
	p.pmu.Lock()
	if p.state == Dead {
		p.pmu.Unlock()
		return fmt.Errorf("uproc: process %d already dead", p.id)
	}
	m.ready.mu.Lock()
	if p.queued {
		m.ready.remove(p)
	}
	p.gen++
	m.ready.mu.Unlock()
	vp := p.vp
	wasRunning := p.state == Running && vp != nil
	p.vp = nil
	p.state = Dead
	p.epoch++
	p.await, p.awaitValue, p.wakePending = nil, 0, false
	pid, kst, stateUID := p.id, p.kst, p.stateUID
	p.pmu.Unlock()
	m.procsMu.Lock()
	delete(m.procs, pid)
	m.procsMu.Unlock()
	if wasRunning {
		m.running.Add(-1)
	}
	if vp != nil {
		if err := m.vps.ReleaseUser(vp); err != nil {
			return err
		}
	}
	m.ksm.DropKST(kst)
	var err error
	if a, lerr := m.segs.Lookup(stateUID); lerr == nil {
		err = m.segs.Delete(stateUID, a.Addr(), m.StateCell.Cell, m.StateCell.Has)
	}
	if !wasRunning {
		// The processor running a process still holds its record,
		// descriptor table and KST until its quantum ends, so only an
		// idle one is recycled.
		m.recycle(p)
	}
	return err
}

// recycle puts a record that no processor holds, its KST dropped, on
// the free list. Its descriptor table is reset now, which leaves every
// connection the process made inert (see segment.Conn).
func (m *Manager) recycle(p *Process) {
	p.dt.Reset()
	m.spareMu.Lock()
	m.spare = append(m.spare, p)
	m.spareMu.Unlock()
}

// workerLoop is one scheduler worker's quantum loop, shared by both
// executors: dispatch from the ready queue, run the body,
// preempt-if-current. Each quantum boundary is a scheduling decision
// under the deterministic executor and a no-op otherwise. When every
// virtual processor is busy the worker parks on the free-pool
// eventcount — but only if some process is running, which proves a
// release (and advance) is coming; otherwise the pool is exhausted for
// good and the worker exits. On return the processor is bound to no
// process, so its later spans are charged to none.
func (m *Manager) workerLoop(cpu *hw.Processor, n int, body func(cpu *hw.Processor, p *Process)) (int, error) {
	tr := m.trace
	defer tr.SetRunningProcess(cpu.ID, 0)
	ran := 0
	for i := 0; i < n; i++ {
		schedsim.Yield(schedsim.PointQuantum, "dispatch")
		tr.BeginSpan(trace.SpanQuantum, ModuleName, int64(i))
		freeSeen := m.vps.FreeEC().Read()
		p, epoch, err := m.Dispatch()
		if err != nil {
			tr.EndSpan(trace.SpanQuantum)
			if errors.Is(err, vproc.ErrNoFreeVP) {
				if m.running.Load() > 0 {
					// A bound process exists, so a ReleaseUser —
					// and its advance past freeSeen — is coming.
					m.vps.FreeEC().Await(freeSeen + 1)
					continue
				}
				return ran, nil
			}
			if errors.Is(err, ErrNoReady) {
				return ran, nil
			}
			return ran, err
		}
		// Span self-time on cpu is now attributed to p; the binding is
		// left in place at preemption, so the tail of a quantum span
		// still charges the process that ran it.
		tr.SetRunningProcess(cpu.ID, p.id)
		if body != nil {
			body(cpu, p)
		}
		err = m.preemptIfCurrent(p, epoch)
		tr.EndSpan(trace.SpanQuantum)
		if err != nil {
			return ran, err
		}
		ran++
	}
	return ran, nil
}
