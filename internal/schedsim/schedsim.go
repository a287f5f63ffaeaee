// Package schedsim is a deterministic virtual-time executor for the
// simulated multiprocessor.
//
// The real-goroutine executor (uproc.GoroutineExecutor) runs one
// goroutine per hw.Processor and lets the Go scheduler interleave
// them; that is the right tool for -race throughput, but the
// interleaving it explores is accidental — the PR-4 zero-reclaim race
// and the PR-6 quota-growth races were caught only because a storm
// test happened to hit the window. schedsim replaces accidental
// interleaving with chosen interleaving: N simulated processors run
// as cooperative tasks on one OS thread's worth of concurrency, and a
// Strategy decides, at every yield point, which task runs next.
//
// A task holds a token; only the token holder executes. At each yield
// point (lock acquire, shootdown broadcast, descriptor publication,
// disk completion, quantum boundary, eventcount await, and explicit
// critical-window marks) the holder asks the executor for a
// scheduling decision and the token moves — or stays — accordingly.
// The token travels over per-task channels, so every cross-task
// transition carries a happens-before edge and the race detector
// stays sound under the simulated schedule.
//
// Two strategies matter:
//
//   - Random(seed): seeded pseudo-random interleaving. A run is a pure
//     function of (workload, seed); any invariant violation reports
//     the seed, and rerunning with -sched-seed=<seed> replays the
//     identical schedule.
//   - Replay(prefix, fallback): force an explicit choice sequence,
//     then continue with a fallback. Sweep uses it to explore every
//     alternative decision around a marked critical window,
//     model-checking style, within configured bounds.
//
// A decision allocates nothing on the host. The executor keeps no
// decision log and builds each Decision's Runnable set in scratch
// space it reuses at the next decision, so the set is valid only while
// the strategy's Choose runs. A Recorder wrapped around the strategy
// is the one decision log; it copies each set it keeps.
//
// Kernel code never imports an executor instance. Each task records
// itself as the active executor's running task when it takes the
// token, so "which execution context am I?" is one atomic load and a
// field read: the hooks (Yield, Block, LockAcquire) act for the token
// holder, and with no executor running they are no-ops. The same
// kernel binary therefore runs identically under real goroutines and
// under the simulator.
//
// The precondition is that while an executor runs, only its tasks
// enter hooked code: a goroutine that is not the token holder would
// be taken for it. uproc.GoroutineExecutor, the kernel's only other
// source of goroutines, refuses to start while an executor runs, and
// under -race any other goroutine that reads the holder is reported.
//
// A task also carries the kernel's per-processor state (Local): the
// processor binding trace attribution reads and the held-lock stack
// lockrank checks, the simulation's counterpart of the paper's
// per-processor wired table. Off a task the package names no context:
// code that must also serve real goroutines keeps its own state for
// them.
package schedsim

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Point classifies a yield point: where in the kernel the scheduling
// decision was taken. Sweeps use it to focus deviations on a window.
type Point int

const (
	// PointStart is the initial dispatch decision before any task runs.
	PointStart Point = iota
	// PointLock is the decision before a ranked mutex acquisition.
	PointLock
	// PointBlock is the decision taken when a task parks on a
	// readiness predicate (lock contention, eventcount await).
	PointBlock
	// PointShootdown is the decision before a ShootdownBus broadcast.
	PointShootdown
	// PointPublish is the decision before a descriptor (SDW/PTE)
	// publication makes a translation visible to other processors.
	PointPublish
	// PointDisk is the decision at a disk record transfer completion.
	PointDisk
	// PointQuantum is the decision at a scheduler quantum boundary.
	PointQuantum
	// PointMark is an explicitly named critical-window marker placed
	// in kernel code (e.g. "zero-reclaim") for sweeps to target.
	PointMark
	// PointYield is an explicit yield from a test or executor body.
	PointYield
	// PointDone is the decision taken when a task finishes.
	PointDone
	// PointDiskQueue is the decision when a request joins a pack's
	// device queue; with PointDisk completions it brackets the
	// submission/completion races of the asynchronous disk pipeline.
	PointDiskQueue

	numPoints
)

var pointNames = [numPoints]string{
	"start", "lock", "block", "shootdown", "publish",
	"disk", "quantum", "mark", "yield", "done", "disk-queue",
}

func (p Point) String() string {
	if p < 0 || p >= numPoints {
		return fmt.Sprintf("point(%d)", int(p))
	}
	return pointNames[p]
}

// A Decision records one scheduling choice: who yielded, where, which
// tasks were runnable, and which was chosen. The decision log is the
// schedule — replaying the same choices reproduces the same run. The
// executor keeps no log of its own: a Recorder is the one log.
type Decision struct {
	// Step is the decision's index in the schedule; it is the
	// executor's virtual clock.
	Step int
	// Point and Detail locate the yield point ("lock", "pageframe").
	Point  Point
	Detail string
	// Task is the task that yielded the token ("" for the initial
	// dispatch).
	Task string
	// Runnable names the tasks eligible to run, in task order. The
	// executor builds it in scratch space it reuses at the next
	// decision, so it is valid only while Choose runs; a strategy that
	// keeps it must copy it, as Recorder does.
	Runnable []string
	// Chosen indexes Runnable.
	Chosen int
}

func (d Decision) String() string {
	where := d.Point.String()
	if d.Detail != "" {
		where += ":" + d.Detail
	}
	return fmt.Sprintf("step %d %s %s -> %s of %v",
		d.Step, d.Task, where, d.Runnable[d.Chosen], d.Runnable)
}

// A Strategy chooses, at each decision, which runnable task runs
// next. Choose returns an index into d.Runnable (d.Chosen is not yet
// set); out-of-range returns are clamped to 0. d.Runnable is scratch,
// valid only for the duration of the call.
type Strategy interface {
	Choose(d Decision) int
}

// Random returns a seeded pseudo-random strategy (splitmix64, so the
// sequence is stable across Go releases). The same seed over the same
// workload yields the same schedule.
func Random(seed int64) Strategy {
	return &randomStrategy{state: uint64(seed)}
}

type randomStrategy struct{ state uint64 }

func (r *randomStrategy) Choose(d Decision) int {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(len(d.Runnable)))
}

// Sticky returns the strategy that keeps running the yielding task
// while it remains runnable — the minimal-preemption baseline sweeps
// deviate from.
func Sticky() Strategy { return stickyStrategy{} }

type stickyStrategy struct{}

func (stickyStrategy) Choose(d Decision) int {
	for i, name := range d.Runnable {
		if name == d.Task {
			return i
		}
	}
	return 0
}

// RoundRobin returns the fair strategy: the token moves to the next
// runnable task after the yielder, cyclically. It interleaves tasks as
// finely as the yield points allow, which keeps retry loops live
// (every retry lets the other tasks progress) — the right fallback for
// sweeps over windows whose recovery path spins until a peer catches
// up.
func RoundRobin() Strategy { return rrStrategy{} }

type rrStrategy struct{}

func (rrStrategy) Choose(d Decision) int {
	for i, name := range d.Runnable {
		if name == d.Task {
			return (i + 1) % len(d.Runnable)
		}
	}
	// The yielder is blocked or done and no longer runnable; spread
	// deterministically by virtual time.
	return d.Step % len(d.Runnable)
}

// Replay returns a strategy that forces the given choice at each of
// the first len(choices) decisions, then defers to fallback. Sweep
// uses it to pin a deviation prefix.
func Replay(choices []int, fallback Strategy) Strategy {
	if fallback == nil {
		fallback = Sticky()
	}
	return &replayStrategy{choices: choices, fallback: fallback}
}

type replayStrategy struct {
	choices  []int
	fallback Strategy
}

func (r *replayStrategy) Choose(d Decision) int {
	if d.Step < len(r.choices) {
		return r.choices[d.Step]
	}
	return r.fallback.Choose(d)
}

// A Failure reports why a simulated schedule could not complete: a
// task panicked (invariant violation, lockrank violation) or every
// task blocked. It always carries the seed so the schedule can be
// replayed.
type Failure struct {
	// Executor is the executor's name.
	Executor string
	// Seed is the schedule seed.
	Seed int64
	// Task is the panicking task ("" for a deadlock).
	Task string
	// Step is the virtual time of the failure.
	Step int
	// Panic is the recovered panic value, nil for a deadlock.
	Panic any
	// Deadlock reports that every live task was blocked on a
	// predicate that can never become true.
	Deadlock bool
	// Reasons lists each blocked task's reason at a deadlock.
	Reasons []string
}

func (f *Failure) Error() string {
	if f.Deadlock {
		return fmt.Sprintf(
			"schedsim[%s]: deadlock at step %d: every task blocked (%s); reproduce with -sched-seed=%d",
			f.Executor, f.Step, strings.Join(f.Reasons, "; "), f.Seed)
	}
	return fmt.Sprintf(
		"schedsim[%s]: task %q failed at step %d: %v; reproduce with -sched-seed=%d",
		f.Executor, f.Task, f.Step, f.Panic, f.Seed)
}

// Config parameterizes an Executor.
type Config struct {
	// Name labels failure reports (default "schedsim").
	Name string
	// Seed seeds the default Random strategy and is echoed in
	// failure reports so runs are reproducible.
	Seed int64
	// Strategy overrides the default Random(Seed).
	Strategy Strategy
	// MaxSteps bounds the schedule length as a runaway backstop
	// (default 1<<22 decisions).
	MaxSteps int
}

type taskState int

const (
	taskRunnable taskState = iota
	taskBlocked
	taskDone
)

type task struct {
	ex    *Executor
	id    int
	name  string
	fn    func()
	gate  chan struct{}
	state taskState
	ready func() bool
	why   string
	local Local
}

// Local is the per-processor state kernel packages keep on the task
// that runs a processor. Only the task itself reads or writes it, so
// it needs no lock.
type Local struct {
	// CPU is the processor the task is bound to for attribution
	// (trace.BindCPU), as its id plus one; zero when unbound.
	CPU int32
	// Held is the task's stack of held ranked locks (package
	// lockrank), innermost last.
	Held []HeldLock
}

// A HeldLock is one entry of a held-lock stack.
type HeldLock struct {
	Rank int
	Name string
}

// An Executor runs a set of tasks — simulated processors — under a
// single token so exactly one executes at a time, consulting its
// Strategy at every yield point. Executors are single-use: Go then
// Run once.
type Executor struct {
	name     string
	seed     int64
	strategy Strategy
	maxSteps int

	tasks []*task

	// The fields below are only touched by the token holder (or by
	// Run while every task is parked), so token hand-off over the
	// gate channels orders all access. holder is the task that holds
	// the token, set by each task as it takes it. run and names are
	// choose's scratch: the runnable tasks and their names, rebuilt at
	// every decision so a decision allocates nothing.
	holder   *task
	step     int
	aborting bool
	failure  *Failure
	run      []*task
	names    []string

	done    chan struct{}
	running bool
}

// active is the executor currently in Run, nil otherwise. Hooks called
// from goroutines that are not registered tasks are no-ops, so kernel
// code instrumented with yield points behaves identically when no
// simulation is running.
var active atomic.Pointer[Executor]

// errAborted unwinds a task after another task's failure; the task
// wrapper swallows it.
var errAborted = fmt.Errorf("schedsim: schedule aborted")

// New builds an executor. Add tasks with Go, then call Run.
func New(cfg Config) *Executor {
	st := cfg.Strategy
	if st == nil {
		st = Random(cfg.Seed)
	}
	name := cfg.Name
	if name == "" {
		name = "schedsim"
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 22
	}
	return &Executor{
		name:     name,
		seed:     cfg.Seed,
		strategy: st,
		maxSteps: maxSteps,
		done:     make(chan struct{}),
	}
}

// Go registers a task. Tasks are identified by name in decisions and
// failure reports; names should be unique ("cpu0", "cpu1", ...).
func (ex *Executor) Go(name string, fn func()) {
	if ex.running {
		panic("schedsim: Go after Run")
	}
	ex.tasks = append(ex.tasks, &task{
		ex:   ex,
		id:   len(ex.tasks),
		name: name,
		fn:   fn,
		gate: make(chan struct{}, 1),
	})
}

// Run executes all tasks to completion under the configured strategy
// and returns nil, or the *Failure describing the first panic or
// deadlock. Only one executor may run at a time per process.
func (ex *Executor) Run() error {
	if ex.running {
		panic("schedsim: Run called twice")
	}
	ex.running = true
	if len(ex.tasks) == 0 {
		return nil
	}
	if !active.CompareAndSwap(nil, ex) {
		panic("schedsim: another executor is already running")
	}
	var ready sync.WaitGroup
	for _, t := range ex.tasks {
		ready.Add(1)
		go t.run(&ready)
	}
	// Every task is parked on its gate before the first decision, so
	// Run may touch executor state here without holding the token.
	ready.Wait()
	first := ex.choose(nil, PointStart, "")
	first.gate <- struct{}{}
	<-ex.done
	active.Store(nil)
	if ex.failure != nil {
		return ex.failure
	}
	return nil
}

// Decisions returns nil. The executor keeps no decision log, so that a
// decision costs no allocation; wrap the strategy in a Recorder to log
// the schedule. The method remains for callers that report the size
// of the executor's log, which is now always zero.
func (ex *Executor) Decisions() []Decision { return nil }

// Seed returns the seed the executor reports in failures.
func (ex *Executor) Seed() int64 { return ex.seed }

func (t *task) run(ready *sync.WaitGroup) {
	ex := t.ex
	ready.Done()
	t.await()
	func() {
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				if ex.failure == nil {
					ex.failure = &Failure{
						Executor: ex.name,
						Seed:     ex.seed,
						Task:     t.name,
						Step:     ex.step,
						Panic:    r,
					}
				}
				ex.aborting = true
			}
		}()
		if !ex.aborting {
			t.fn()
		}
	}()
	t.state = taskDone
	if next := ex.choose(t, PointDone, t.name); next != nil {
		next.gate <- struct{}{}
	} else {
		close(ex.done)
	}
}

// choose records a scheduling decision at the given point and returns
// the task to receive the token, or nil when no live task remains.
// Only the token holder (or Run, before the first dispatch) may call
// it. from is the yielding task, nil at the initial dispatch.
func (ex *Executor) choose(from *task, p Point, detail string) *task {
	if ex.step >= ex.maxSteps && !ex.aborting {
		ex.failure = &Failure{
			Executor: ex.name,
			Seed:     ex.seed,
			Task:     taskName(from),
			Step:     ex.step,
			Panic:    fmt.Sprintf("schedule exceeded %d steps", ex.maxSteps),
		}
		ex.aborting = true
	}
	if ex.aborting {
		// Drain: wake each remaining task in turn so it unwinds via
		// errAborted; readiness predicates no longer apply.
		for _, t := range ex.tasks {
			if t.state != taskDone && t != from {
				t.state = taskRunnable
				t.ready = nil
				return t
			}
		}
		return nil
	}
	// Collect runnable tasks, waking blocked ones whose predicates
	// have become true. Predicates may carry side effects (try-lock
	// acquires and keeps), so a true return transitions the task to
	// runnable exactly once. Evaluation is in task order, which keeps
	// the runnable set — and therefore the schedule — deterministic.
	run, names := ex.run[:0], ex.names[:0]
	for _, t := range ex.tasks {
		switch t.state {
		case taskRunnable:
		case taskBlocked:
			if !t.ready() {
				continue
			}
			t.state = taskRunnable
			t.ready = nil
		default:
			continue
		}
		run = append(run, t)
		names = append(names, t.name)
	}
	ex.run, ex.names = run, names
	if len(run) == 0 {
		var reasons []string
		for _, t := range ex.tasks {
			if t.state == taskBlocked {
				reasons = append(reasons, t.name+": "+t.why)
			}
		}
		if len(reasons) == 0 {
			return nil // every task finished
		}
		// Nothing outside the executor can change state, so blocked
		// predicates that are all false now are false forever.
		ex.failure = &Failure{
			Executor: ex.name,
			Seed:     ex.seed,
			Step:     ex.step,
			Deadlock: true,
			Reasons:  reasons,
		}
		ex.aborting = true
		return ex.choose(from, p, detail)
	}
	c := ex.strategy.Choose(Decision{
		Step:     ex.step,
		Point:    p,
		Detail:   detail,
		Task:     taskName(from),
		Runnable: names,
	})
	if c < 0 || c >= len(run) {
		c = 0
	}
	ex.step++
	return run[c]
}

func taskName(t *task) string {
	if t == nil {
		return ""
	}
	return t.name
}

// await parks t until it is handed the token, then records it as the
// running task.
func (t *task) await() {
	<-t.gate
	t.ex.holder = t
}

// yield offers a scheduling decision at point p. The token may move
// to another task; yield returns when this task is scheduled again.
func (ex *Executor) yield(t *task, p Point, detail string) {
	if ex.aborting {
		panic(errAborted)
	}
	next := ex.choose(t, p, detail)
	if next == t {
		return
	}
	if next == nil {
		panic(errAborted)
	}
	next.gate <- struct{}{}
	t.await()
	if ex.aborting {
		panic(errAborted)
	}
}

// block parks t until ready() reports true. A true return is consumed
// — predicates that acquire (try-lock) hold their acquisition when
// block returns. Panics with errAborted if the schedule fails first.
func (ex *Executor) block(t *task, why string, ready func() bool) {
	if ex.aborting {
		panic(errAborted)
	}
	if ready() {
		return
	}
	t.state = taskBlocked
	t.ready = ready
	t.why = why
	next := ex.choose(t, PointBlock, why)
	if next == t {
		return
	}
	if next == nil {
		panic(errAborted)
	}
	next.gate <- struct{}{}
	t.await()
	if ex.aborting {
		panic(errAborted)
	}
}

// current returns the active executor's token holder, nil when no
// executor runs. Under the package precondition the caller is that
// task.
func current() *task {
	if ex := active.Load(); ex != nil {
		return ex.holder
	}
	return nil
}

// OnTask reports whether the caller is a task of the active executor.
func OnTask() bool { return current() != nil }

// Running reports whether an executor is running.
func Running() bool { return active.Load() != nil }

// Current returns the calling task's per-processor state, nil off-task.
func Current() *Local {
	if t := current(); t != nil {
		return &t.local
	}
	return nil
}

// Yield offers a scheduling decision at point p. A no-op for
// goroutines that are not tasks of the active executor, so kernel
// code may call it unconditionally.
func Yield(p Point, detail string) {
	if t := current(); t != nil {
		t.ex.yield(t, p, detail)
	}
}

// Block parks the calling task until ready() reports true; the true
// return is consumed (a try-lock predicate holds the lock when Block
// returns). A no-op for goroutines that are not tasks — such callers
// must block by their own means.
func Block(why string, ready func() bool) {
	if t := current(); t != nil {
		t.ex.block(t, why, ready)
	}
}

// LockAcquire cooperatively acquires mu on behalf of the calling
// task: a PointLock decision, then try-lock, parking on contention.
// Returns false when the caller is not a task, in which case the
// caller must acquire mu itself.
func LockAcquire(mu *sync.Mutex, name string) bool {
	t := current()
	if t == nil {
		return false
	}
	t.ex.yield(t, PointLock, name)
	if mu.TryLock() {
		return true
	}
	t.ex.block(t, "lock "+name, mu.TryLock)
	return true
}
