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
// thousands of processes: the process table is sharded, the ready
// set is per-CPU intrusive FIFO run queues with O(1)
// enqueue/dequeue and work stealing when a queue drains, and idle
// schedulers block on eventcounts instead of polling. As in the
// paper's design there are no priorities: every ready process waits
// its turn. The locks split the manager's certification layer into
// sub-ranks, acquired strictly downward:
//
//	manager (trace wiring, queue reconfiguration)
//	> process-table shard (pid -> process map)
//	> per-process lock (state, bindings, home queue)
//	> per-CPU run queue (intrusive ready links)
//	> real-memory message queue
package uproc

import (
	"errors"
	"fmt"
	"sort"
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
	subRunQueue = 1 // per-CPU run queues
	subProc     = 2 // per-process locks
	subShard    = 3 // process-table shards
	subManager  = 4 // run-queue reconfiguration
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
	// It ranks above the run-queue locks, so a holder can enqueue,
	// and below the shard locks, so a table scan can inspect.
	pmu lockrank.Mutex

	state State
	vp    *vproc.VP
	// epoch counts dispatches; an executor preempting after running a
	// body quotes the epoch it dispatched, so a process the body
	// blocked and another CPU re-dispatched is not torn down twice.
	epoch uint64
	// await is the eventcount/value pair a blocked process waits on.
	await      *eventcount.Eventcount
	awaitValue uint64
	// wakePending is the wakeup-waiting switch: a targeted wakeup
	// delivered while the process was not blocked is remembered
	// here, and the next awaitless Block consumes it instead of
	// parking forever.
	wakePending bool

	// home is the index of the run queue this process is enqueued on;
	// it changes only when a stealing CPU claims the process.
	home int

	// next/prev/queued are the intrusive run-queue links, protected by
	// the run queue's lock, not pmu.
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
	q.meter.Add(hw.CycIPC)
	if q.trace != nil {
		q.trace.Emit(trace.Event{Kind: trace.EvIPC, Module: ModuleName, Cost: hw.CycIPC, Arg0: int64(m.Kind), Arg1: int64(m.Process)})
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

// numShards shards the pid -> process table so lookups and creations
// from many CPUs do not serialize on one lock.
const numShards = 32

type procShard struct {
	mu    lockrank.Mutex
	procs map[uint64]*Process
}

// SchedStats is the scheduler's own meter block.
type SchedStats struct {
	// Dispatches counts successful process dispatches.
	Dispatches int64
	// Steals counts dispatches that took the process from another
	// CPU's run queue; Migrations counts the re-homings that result.
	Steals     int64
	Migrations int64
	// Wakeups counts blocked processes made ready by event delivery.
	Wakeups int64
	// MaxQueueDepth is the deepest any run queue has been.
	MaxQueueDepth int
	// RunQueues is the configured run-queue count.
	RunQueues int
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

	// mu serializes run-queue reconfiguration; it is never on the
	// dispatch path.
	mu lockrank.Mutex

	nextPID atomic.Uint64
	shards  [numShards]procShard

	// queues is written once at boot (SetRunQueues, before any
	// process exists) and read-only thereafter.
	queues   []*runQueue
	nextHome atomic.Uint64

	// readyEC is advanced on every enqueue, so idle schedulers can
	// await work instead of polling.
	readyEC eventcount.Eventcount

	// running counts processes currently bound to virtual
	// processors; the idle-wait path uses it to prove a future
	// free-pool advance exists before sleeping.
	running atomic.Int64

	dispatches atomic.Int64
	steals     atomic.Int64
	migrations atomic.Int64
	wakeups    atomic.Int64
}

// NewManager returns a user process manager multiplexing vps and
// posting low-level events through queue. It starts with a single
// run queue; SetRunQueues reshapes it at boot. Process-swap,
// scheduling and quantum events go to rec (nil when untraced).
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
	}
	m.mu.InitSub(ModuleName, subManager)
	for i := range m.shards {
		m.shards[i].mu.InitSub(ModuleName, subShard)
		m.shards[i].procs = make(map[uint64]*Process)
	}
	m.queues = []*runQueue{newRunQueue(0)}
	m.readyEC.Trace(rec, ModuleName)
	return m
}

// SetRunQueues reshapes the ready set into n per-CPU run queues. It
// must be called before any process exists (boot); reconfiguring a
// populated scheduler would strand queued processes.
func (m *Manager) SetRunQueues(n int) {
	if n <= 0 {
		panic("uproc: run-queue count must be positive")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		populated := len(sh.procs) > 0
		sh.mu.Unlock()
		if populated {
			panic("uproc: SetRunQueues with live processes")
		}
	}
	queues := make([]*runQueue, n)
	for i := range queues {
		queues[i] = newRunQueue(i)
	}
	m.queues = queues
	m.nextHome.Store(0)
}

func (m *Manager) shard(pid uint64) *procShard {
	return &m.shards[pid%numShards]
}

// Create makes a new user process for the authenticated principal at
// the given AIM label. Its state segment lives in the virtual memory,
// charged like any other segment. The process starts Ready at the
// back of its run queue, homed round-robin across the run queues.
func (m *Manager) Create(principal string, label aim.Label) (*Process, error) {
	if principal == "" {
		return nil, errors.New("uproc: empty principal")
	}
	pid := m.nextPID.Add(1)

	kst, err := m.ksm.NewKST(m.KSTBase, m.KSTSize)
	if err != nil {
		return nil, err
	}
	// The process state segment: ordinary, pageable, quota-charged.
	stateUID := m.segs.NewUID()
	stateAddr, err := m.segs.Create(m.StatePack, stateUID, false, m.StateCell.UID)
	if err != nil {
		return nil, err
	}
	if _, err := m.segs.Activate(stateUID, stateAddr, m.StateCell.Cell, m.StateCell.Has); err != nil {
		return nil, err
	}
	if _, err := m.segs.Grow(stateUID, 0, 0, 0); err != nil {
		return nil, err
	}
	if err := m.segs.WriteWord(stateUID, 0, hw.Word(pid).Masked()); err != nil {
		return nil, err
	}
	p := &Process{
		id:           pid,
		principal:    principal,
		label:        label,
		state:        Ready,
		dt:           hw.NewDescriptorTable(m.KSTBase + m.KSTSize),
		kst:          kst,
		stateUID:     stateUID,
		home:         int((m.nextHome.Add(1) - 1) % uint64(len(m.queues))),
		createdCycle: m.meter.Cycles(),
	}
	p.firstRunCycle.Store(-1)
	p.pmu.InitSub(ModuleName, subProc)
	sh := m.shard(pid)
	sh.mu.Lock()
	sh.procs[pid] = p
	sh.mu.Unlock()
	p.pmu.Lock()
	m.enqueue(p, false)
	p.pmu.Unlock()
	return p, nil
}

// enqueue puts p on its home run queue (front prepends). Caller holds
// p.pmu, which pins p.home.
func (m *Manager) enqueue(p *Process, front bool) {
	rq := m.queues[p.home]
	rq.mu.Lock()
	rq.push(p, front)
	rq.mu.Unlock()
	m.readyEC.Advance()
}

// Lookup returns the process with the given id.
func (m *Manager) Lookup(pid uint64) (*Process, error) {
	sh := m.shard(pid)
	sh.mu.Lock()
	p, ok := sh.procs[pid]
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("uproc: no process %d", pid)
	}
	return p, nil
}

// Count reports the number of live processes — arbitrary, unlike the
// fixed virtual-processor count below.
func (m *Manager) Count() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.procs)
		sh.mu.Unlock()
	}
	return n
}

// allPIDs returns every registered process id in ascending order, so
// broadcast wakeups touch processes in a deterministic order.
func (m *Manager) allPIDs() []uint64 {
	var pids []uint64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for pid := range sh.procs {
			pids = append(pids, pid)
		}
		sh.mu.Unlock()
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}

// SchedStats returns the scheduler's counters: dispatch volume, work
// stealing, wakeups, and queue depth.
func (m *Manager) SchedStats() SchedStats {
	st := SchedStats{
		Dispatches: m.dispatches.Load(),
		Steals:     m.steals.Load(),
		Migrations: m.migrations.Load(),
		Wakeups:    m.wakeups.Load(),
		RunQueues:  len(m.queues),
	}
	for _, rq := range m.queues {
		rq.mu.Lock()
		if rq.maxDepth > st.MaxQueueDepth {
			st.MaxQueueDepth = rq.maxDepth
		}
		rq.mu.Unlock()
	}
	return st
}

// take pops the longest-waiting ready process, preferring run queue
// qi and stealing from the others in ring order when it is empty. It
// returns the process and the queue it came from. One queue lock is
// held at a time.
func (m *Manager) take(qi int) (*Process, int) {
	n := len(m.queues)
	for i := 0; i < n; i++ {
		vi := (qi + i) % n
		rq := m.queues[vi]
		rq.mu.Lock()
		p := rq.pop()
		rq.mu.Unlock()
		if p != nil {
			return p, vi
		}
	}
	return nil, -1
}

// DispatchOn is Dispatch preferring run queue qi, which must be in
// [0, number of run queues) — each scheduler worker passes its own
// CPU's queue — stealing from sibling queues when it is empty. It
// also returns the dispatch epoch, which preemptIfCurrent uses to
// tear down exactly the dispatch it made.
func (m *Manager) DispatchOn(qi int) (*Process, uint64, error) {
	for {
		p, from := m.take(qi)
		if p == nil {
			return nil, 0, ErrNoReady
		}
		tr := m.trace
		if from != qi {
			m.steals.Add(1)
			if tr != nil {
				tr.Emit(trace.Event{Kind: trace.EvSchedSteal, Module: ModuleName, Arg0: int64(qi), Arg1: int64(from), Arg2: int64(p.id)})
			}
			schedsim.Yield(schedsim.PointMark, "uproc-steal")
		}
		// Claim: the pop made p invisible to other dispatchers, but a
		// concurrent Destroy can still have killed it.
		p.pmu.Lock()
		if p.state != Ready {
			p.pmu.Unlock()
			continue
		}
		if p.home != qi {
			old := p.home
			p.home = qi
			m.migrations.Add(1)
			if tr != nil {
				tr.Emit(trace.Event{Kind: trace.EvSchedMigrate, Module: ModuleName, Arg0: int64(old), Arg1: int64(qi), Arg2: int64(p.id)})
			}
		}
		p.pmu.Unlock()

		vp, err := m.vps.AcquireUser(p.id)
		if err != nil {
			m.requeueFront(p)
			return nil, 0, err
		}
		// Touch the state segment (a real virtual-memory reference) and
		// charge the swap cost.
		if _, err := m.segs.EnsureResident(p.stateUID, 0); err != nil {
			_ = m.vps.ReleaseUser(vp)
			if p.State() == Dead {
				// A concurrent Destroy deleted the state segment
				// after the claim: skip the process.
				continue
			}
			m.requeueFront(p)
			return nil, 0, err
		}
		m.meter.Add(hw.CycProcessSwap)

		p.pmu.Lock()
		if p.state != Ready {
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
		if tr != nil {
			// Arg1 = 0: a state load through the virtual memory.
			tr.Emit(trace.Event{Kind: trace.EvProcessSwap, Module: ModuleName, Cost: hw.CycProcessSwap, Arg0: int64(p.id)})
		}
		return p, epoch, nil
	}
}

// requeueFront returns a claimed-but-undispatched process to the
// front of its queue, so a transient failure (no free virtual
// processor) does not cost it its place in line.
func (m *Manager) requeueFront(p *Process) {
	p.pmu.Lock()
	if p.state == Ready {
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
	if p.state != Running || p.vp == nil || p.epoch != epoch {
		p.pmu.Unlock()
		return nil
	}
	vp := p.vp
	p.vp = nil
	p.state = Ready
	m.enqueue(p, false)
	p.pmu.Unlock()
	return m.finishUnbind(p, vp, Ready)
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
	p.pmu.Unlock()
	if err := m.unbind(p, Blocked); err != nil {
		return err
	}
	if ec != nil {
		if _, ok := ec.TryAwait(v); ok {
			m.tryWake(p)
		}
		return nil
	}
	// Wakeup-waiting rescue: a targeted wakeup delivered while the
	// process was still running could not unblock it then; the switch
	// remembers it, and consuming it here closes the lost-wakeup
	// window between the delivery scan and this block.
	p.pmu.Lock()
	if p.wakePending && p.state == Blocked {
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
	p.pmu.Unlock()
	return m.finishUnbind(p, vp, to)
}

// finishUnbind stores the state word back through the virtual memory,
// meters the swap, and frees the virtual processor (which advances
// the free-pool eventcount, waking idle schedulers).
func (m *Manager) finishUnbind(p *Process, vp *vproc.VP, to State) error {
	m.running.Add(-1)
	if err := m.segs.WriteWord(p.stateUID, 1, hw.Word(to)); err != nil {
		if p.State() == Dead {
			// A concurrent Destroy deleted the state segment after
			// the unbind: there is no state left to store.
			return m.vps.ReleaseUser(vp)
		}
		return err
	}
	m.meter.Add(hw.CycProcessSwap)
	if m.trace != nil {
		// Arg1 = 1: a state store through the virtual memory.
		m.trace.Emit(trace.Event{Kind: trace.EvProcessSwap, Module: ModuleName, Cost: hw.CycProcessSwap, Arg0: int64(p.id), Arg1: 1})
	}
	return m.vps.ReleaseUser(vp)
}

// tryWake moves a blocked process whose await is satisfied to Ready,
// reporting whether it woke.
func (m *Manager) tryWake(p *Process) bool {
	p.pmu.Lock()
	if p.state != Blocked {
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
// interleave between the state check and the flag.
func (m *Manager) wakeTargeted(p *Process) bool {
	p.pmu.Lock()
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
		return m.tryWake(p)
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
// it to its ready queue. The scheduler's virtual processor runs this;
// it returns the number of processes made ready. Targeted messages
// cost one sharded lookup; broadcasts sweep the pid space in
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
			if m.wakeTargeted(p) {
				woken++
			}
			continue
		}
		for _, pid := range m.allPIDs() {
			p, err := m.Lookup(pid)
			if err != nil {
				continue
			}
			if m.tryWake(p) {
				woken++
			}
		}
	}
	return woken, nil
}

// Audit checks the manager's invariants: each run queue's list holds
// exactly its recorded size, running processes hold exactly one
// user-bound virtual processor, ready processes appear on a run
// queue, and nothing dead lingers.
func (m *Manager) Audit() []string {
	var bad []string
	onQueue := make(map[uint64]bool)
	for _, rq := range m.queues {
		rq.mu.Lock()
		n := 0
		for p := rq.head; p != nil && n <= rq.size; p = p.next {
			onQueue[p.id] = true
			n++
		}
		if n != rq.size {
			bad = append(bad, fmt.Sprintf("run queue %d walk reaches %d processes, size %d", rq.id, n, rq.size))
		}
		rq.mu.Unlock()
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for pid, p := range sh.procs {
			p.pmu.Lock()
			switch p.state {
			case Running:
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
		sh.mu.Unlock()
	}
	return bad
}

// Destroy ends a process, releasing its virtual processor, state
// segment and KST.
func (m *Manager) Destroy(p *Process) error {
	p.pmu.Lock()
	if p.state == Dead {
		p.pmu.Unlock()
		return fmt.Errorf("uproc: process %d already dead", p.id)
	}
	rq := m.queues[p.home]
	rq.mu.Lock()
	if p.queued {
		rq.remove(p)
	}
	rq.mu.Unlock()
	vp := p.vp
	wasRunning := p.state == Running && vp != nil
	p.vp = nil
	p.state = Dead
	p.pmu.Unlock()
	sh := m.shard(p.id)
	sh.mu.Lock()
	delete(sh.procs, p.id)
	sh.mu.Unlock()
	if wasRunning {
		m.running.Add(-1)
	}
	if vp != nil {
		if err := m.vps.ReleaseUser(vp); err != nil {
			return err
		}
	}
	m.ksm.DropKST(p.kst)
	a, err := m.segs.Lookup(p.stateUID)
	if err == nil {
		return m.segs.Delete(p.stateUID, a.Addr())
	}
	return nil
}

// workerLoop is one scheduler worker's quantum loop, shared by both
// executors: dispatch from the worker's run queue, run the body,
// preempt-if-current. Each quantum boundary is a scheduling decision
// under the deterministic executor and a no-op otherwise. When every
// virtual processor is busy the worker parks on the free-pool
// eventcount — but only if some process is running, which proves a
// release (and advance) is coming; otherwise the pool is exhausted for
// good and the worker exits. On return the processor is bound to no
// process, so its later spans are charged to none.
func (m *Manager) workerLoop(wi int, cpu *hw.Processor, n int, body func(cpu *hw.Processor, p *Process)) (int, error) {
	tr := m.trace
	defer tr.SetRunningProcess(cpu.ID, 0)
	qi := wi % len(m.queues)
	ran := 0
	for i := 0; i < n; i++ {
		schedsim.Yield(schedsim.PointQuantum, "dispatch")
		tr.BeginSpan(trace.SpanQuantum, ModuleName, int64(i))
		freeSeen := m.vps.FreeEC().Read()
		p, epoch, err := m.DispatchOn(qi)
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
