//go:build go1.23

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
// Each task runs on a coroutine (iter.Pull), and Run is the driver
// that resumes them: a task that passes the token on records the task
// chosen and switches back to Run, which resumes that task's
// coroutine. A hand-off is thus two coroutine switches, with no trip
// through the Go scheduler. Each switch is a happens-before edge for
// the race detector (iter.Pull annotates it), so -race stays sound
// under the simulated schedule.
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
// decision log and keeps each Decision's Runnable set in scratch space
// that later decisions reuse, rebuilt only when some task has blocked,
// woken or finished since the last one, so the set is valid only while
// the strategy's Choose runs. Blocked tasks' predicates are still
// evaluated, in task order, at every decision. A Recorder wrapped
// around the strategy is the one decision log; it copies each set it
// keeps.
//
// Nor does a warm run allocate at all. Only one executor runs at a
// time, so the storage of its tasks persists across runs: the carriers
// (a coroutine per task slot, parked between runs) and an engine of
// run settings, task records and decision scratch that New takes and
// Run gives back. The Executor handle itself is small and does not
// escape its caller, which keeps it on its stack. A carrier whose task
// ended in a panic is dropped rather than reused.
//
// Kernel code never imports an executor instance. Run records each
// task as the active executor's running task before it resumes it,
// so "which execution context am I?" is one atomic load and a
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
	"iter"
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

// A Decision is one scheduling choice as the strategy sees it: who
// yielded, where, and which tasks are runnable. The choice made is
// logged with it by a Recorder (Recorded); that log is the schedule —
// replaying the same choices reproduces the same run. The executor
// keeps no log of its own.
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
	// Runnable names the tasks eligible to run, in task order. It is
	// the executor's scratch, which later decisions reuse, so it is
	// valid only while Choose runs and must not be modified; a
	// strategy that keeps it must copy it, as Recorder does.
	Runnable []string
}

// A Recorded decision is a Decision as a Recorder logs it, with the
// index into Runnable of the task chosen.
type Recorded struct {
	Decision
	Chosen int
}

func (d Recorded) String() string {
	where := d.Point.String()
	if d.Detail != "" {
		where += ":" + d.Detail
	}
	return fmt.Sprintf("step %d %s %s -> %s of %v",
		d.Step, d.Task, where, d.Runnable[d.Chosen], d.Runnable)
}

// A Strategy chooses, at each decision, which runnable task runs
// next. Choose returns an index into d.Runnable; out-of-range returns
// are clamped to 0. d.Runnable is scratch, valid only for the duration
// of the call.
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
	// Panic is the recovered panic value, nil for a deadlock. A task
	// that called runtime.Goexit is reported with a string saying so.
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

// A task is one task slot's record. Records are kept across runs in
// the engine, so Go resets every field but local's Held capacity.
type task struct {
	eng   *engine
	id    int
	name  string
	fn    func()
	state taskState
	// A blocked task waits for ready to report true or, on a contended
	// lock, for mu.TryLock to succeed; why names the wait.
	ready func() bool
	mu    *sync.Mutex
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
// Run once. The handle is small enough for its caller's stack; the
// storage its tasks used goes back to the next executor when Run
// returns.
type Executor struct {
	// eng is the engine the executor took at New, nil once Run has
	// returned it.
	eng     *engine
	running bool
}

// An engine is everything an executor's run needs: the run's settings,
// a record per task slot, the token's state, and choose's scratch (the
// runnable tasks and their names, rebuilt only when some task's state
// has changed). New takes the spare engine and Run puts it back, so a
// warm run allocates nothing.
type engine struct {
	name     string
	seed     int64
	strategy Strategy
	maxSteps int
	// rnd is the default strategy, Random(seed).
	rnd randomStrategy

	// slots holds every record made; tasks are those of the
	// executor's tasks, a prefix of slots.
	slots []*task
	tasks []*task

	// The fields below are only touched by the token holder, or by
	// Run between two resumptions. holder is the task that holds the
	// token; next is the task a yielding or finishing task handed it
	// to, nil when no live task remains.
	holder   *task
	next     *task
	step     int
	failure  *Failure
	aborting bool

	// run and names are the runnable tasks and their names, in task
	// order, stale once changed is set; blocked counts the blocked
	// tasks.
	run     []*task
	names   []string
	changed bool
	blocked int

	// lockWhys maps a lock's name to "lock <name>", the detail of the
	// decision taken when a LockAcquire of that lock blocks, built
	// once per name (lock names are the kernel's module names).
	lockWhys map[string]string
}

// spare is the engine the last executor to finish left behind.
var spare atomic.Pointer[engine]

// A carrier runs tasks as a coroutine. Parked between runs, it runs
// the task Run hands it when the token first reaches it. resume
// switches to it from Run; park, called on it, switches back.
type carrier struct {
	resume func() (struct{}, bool)
	park   func(struct{}) bool
	t      *task
}

// carriers serve the running executor, which alone touches them:
// carriers[i] carries task i. A nil carrier is started afresh.
// Carriers are never stopped: there is one per task slot of the widest
// run so far, parked, holding nothing of a finished run.
var carriers []*carrier

// active is the engine of the executor currently in Run, nil
// otherwise. Hooks called from goroutines that are not registered
// tasks are no-ops, so kernel code instrumented with yield points
// behaves identically when no simulation is running.
var active atomic.Pointer[engine]

// errAborted unwinds a task after another task's failure; the task
// wrapper swallows it.
var errAborted = fmt.Errorf("schedsim: schedule aborted")

// New builds an executor. Add tasks with Go, then call Run.
func New(cfg Config) *Executor {
	return &Executor{eng: takeEngine(cfg)}
}

// takeEngine returns the spare engine, or a new one, set up for a run
// under cfg.
func takeEngine(cfg Config) *engine {
	eng := spare.Swap(nil)
	if eng == nil {
		eng = new(engine)
	}
	eng.name = cfg.Name
	if eng.name == "" {
		eng.name = "schedsim"
	}
	eng.seed = cfg.Seed
	eng.strategy = cfg.Strategy
	if eng.strategy == nil {
		eng.rnd = randomStrategy{state: uint64(cfg.Seed)}
		eng.strategy = &eng.rnd
	}
	eng.maxSteps = cfg.MaxSteps
	if eng.maxSteps == 0 {
		eng.maxSteps = 1 << 22
	}
	eng.step, eng.failure, eng.aborting = 0, nil, false
	eng.changed, eng.blocked = true, 0
	return eng
}

// Go registers a task. Tasks are identified by name in decisions and
// failure reports; names should be unique ("cpu0", "cpu1", ...).
func (ex *Executor) Go(name string, fn func()) {
	if ex.running {
		panic("schedsim: Go after Run")
	}
	eng := ex.eng
	id := len(eng.tasks)
	if id == len(eng.slots) {
		eng.slots = append(eng.slots, new(task))
	}
	t := eng.slots[id]
	*t = task{eng: eng, id: id, name: name, fn: fn, local: Local{Held: t.local.Held[:0]}}
	eng.tasks = eng.slots[:id+1]
}

// Run executes all tasks to completion under the configured strategy
// and returns nil, or the *Failure describing the first panic or
// deadlock. Only one executor may run at a time per process.
//
// Run is the driver: it resumes the chosen task's carrier, which runs
// until the task yields the token to another task or finishes and
// records that task as the next; Run then resumes that one.
func (ex *Executor) Run() error {
	if ex.running {
		panic("schedsim: Run called twice")
	}
	ex.running = true
	eng := ex.eng
	ex.eng = nil
	if len(eng.tasks) == 0 {
		eng.release()
		return nil
	}
	if !active.CompareAndSwap(nil, eng) {
		panic("schedsim: another executor is already running")
	}
	for i, t := range eng.tasks {
		if i == len(carriers) {
			carriers = append(carriers, nil)
		}
		if carriers[i] == nil {
			carriers[i] = newCarrier()
		}
		carriers[i].t = t
	}
	for next := eng.choose(nil, PointStart, ""); next != nil; next = eng.next {
		eng.holder, eng.next = next, nil
		carriers[next.id].resume()
	}
	active.Store(nil)
	f := eng.failure
	eng.release()
	if f != nil {
		return f
	}
	return nil
}

// release returns eng to spare, its records holding nothing of the
// run.
func (eng *engine) release() {
	for _, t := range eng.tasks {
		t.eng, t.fn, t.ready, t.mu = nil, nil, nil, nil
	}
	eng.tasks = nil
	eng.strategy, eng.holder, eng.failure = nil, nil, nil
	spare.Store(eng)
}

// Decisions returns nil. The executor keeps no decision log, so that a
// decision costs no allocation; wrap the strategy in a Recorder to log
// the schedule. The method remains for callers that report the size
// of the executor's log, which is now always zero.
func (ex *Executor) Decisions() []Decision { return nil }

// newCarrier starts a carrier, parked until its first resume.
func newCarrier() *carrier {
	c := new(carrier)
	c.resume, _ = iter.Pull(c.carry)
	return c
}

// carry is a carrier's coroutine: each time it is resumed after
// parking between runs, it runs the task Run handed it, until a task
// ends in a panic.
func (c *carrier) carry(park func(struct{}) bool) {
	c.park = park
	for c.t.run() {
		park(struct{}{})
	}
}

// run runs t, which has just taken the token for the first time, and
// records the task the token passes to when t is done. It reports
// whether t's carrier may carry another task: not once a panic has
// unwound it, so the next run starts a new carrier in its place.
//
// A task that calls runtime.Goexit neither returns nor panics. Its
// deferred hand-off records the schedule's failure, aborts it and
// still names the next task; it then parks the carrier for good, since
// a coroutine that ended in Goexit would carry the Goexit into Run.
func (t *task) run() (reusable bool) {
	eng, c := t.eng, carriers[t.id]
	returned := false
	defer func() {
		if returned {
			return
		}
		eng.fail(t, "runtime.Goexit: the task exited without returning")
		carriers[t.id] = nil
		eng.finish(t)
		c.park(struct{}{})
	}()
	reusable = !t.body()
	returned = true
	if !reusable {
		carriers[t.id] = nil
	}
	eng.finish(t)
	return reusable
}

// finish marks t done and chooses the task the token passes to. Nothing
// after it touches t, which the next run may already be reusing.
func (eng *engine) finish(t *task) {
	t.state = taskDone
	eng.changed = true
	eng.next = eng.choose(t, PointDone, t.name)
}

// fail makes why, raised by t, the schedule's failure unless it
// already has one, and aborts the schedule.
func (eng *engine) fail(t *task, why any) {
	if eng.failure == nil {
		eng.failure = &Failure{
			Executor: eng.name,
			Seed:     eng.seed,
			Task:     t.name,
			Step:     eng.step,
			Panic:    why,
		}
	}
	eng.aborting = true
}

// body runs t's function unless the schedule is already aborting, and
// reports whether it ended in a panic. The first panic other than an
// abort's unwinding is the schedule's failure, and aborts it.
func (t *task) body() (panicked bool) {
	eng := t.eng
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		panicked = true
		if r != errAborted {
			eng.fail(t, r)
		}
	}()
	if !eng.aborting {
		t.fn()
	}
	return false
}

// choose records a scheduling decision at the given point and returns
// the task to receive the token, or nil when no live task remains.
// Only the token holder (or Run, before the first dispatch) may call
// it. from is the yielding task, nil at the initial dispatch.
func (eng *engine) choose(from *task, p Point, detail string) *task {
	if eng.step >= eng.maxSteps && !eng.aborting {
		eng.failure = &Failure{
			Executor: eng.name,
			Seed:     eng.seed,
			Task:     taskName(from),
			Step:     eng.step,
			Panic:    fmt.Sprintf("schedule exceeded %d steps", eng.maxSteps),
		}
		eng.aborting = true
	}
	if eng.aborting {
		// Drain: wake each remaining task in turn so it unwinds via
		// errAborted; readiness predicates no longer apply.
		for _, t := range eng.tasks {
			if t.state != taskDone && t != from {
				if t.state == taskBlocked {
					eng.wake(t)
				}
				return t
			}
		}
		return nil
	}
	// Wake blocked tasks whose predicates have become true. Predicates
	// may carry side effects (try-lock acquires and keeps), so a true
	// return transitions the task to runnable exactly once. Evaluation
	// is in task order, which keeps the runnable set — and therefore
	// the schedule — deterministic.
	if eng.blocked > 0 {
		for _, t := range eng.tasks {
			if t.state == taskBlocked && t.unblocked() {
				eng.wake(t)
			}
		}
	}
	if eng.changed {
		run, names := eng.run[:0], eng.names[:0]
		for _, t := range eng.tasks {
			if t.state == taskRunnable {
				run = append(run, t)
				names = append(names, t.name)
			}
		}
		eng.run, eng.names, eng.changed = run, names, false
	}
	if len(eng.run) == 0 {
		if eng.blocked == 0 {
			return nil // every task finished
		}
		// Nothing outside the executor can change state, so blocked
		// predicates that are all false now are false forever.
		var reasons []string
		for _, t := range eng.tasks {
			if t.state == taskBlocked {
				reasons = append(reasons, t.name+": "+t.why)
			}
		}
		eng.failure = &Failure{
			Executor: eng.name,
			Seed:     eng.seed,
			Step:     eng.step,
			Deadlock: true,
			Reasons:  reasons,
		}
		eng.aborting = true
		return eng.choose(from, p, detail)
	}
	c := eng.strategy.Choose(Decision{
		Step:     eng.step,
		Point:    p,
		Detail:   detail,
		Task:     taskName(from),
		Runnable: eng.names,
	})
	if c < 0 || c >= len(eng.run) {
		c = 0
	}
	eng.step++
	return eng.run[c]
}

func taskName(t *task) string {
	if t == nil {
		return ""
	}
	return t.name
}

// unblocked reports whether blocked t may run again, taking the lock
// it waits for if it waits for one.
func (t *task) unblocked() bool {
	if t.mu != nil {
		return t.mu.TryLock()
	}
	return t.ready()
}

// wake makes blocked t runnable.
func (eng *engine) wake(t *task) {
	t.state, t.ready, t.mu = taskRunnable, nil, nil
	eng.blocked--
	eng.changed = true
}

// yield offers a scheduling decision at point p. The token may move
// to another task; yield returns when this task is scheduled again.
func (eng *engine) yield(t *task, p Point, detail string) {
	if eng.aborting {
		panic(errAborted)
	}
	eng.pass(t, eng.choose(t, p, detail))
}

// block parks t until ready() reports true or, when mu is not nil,
// until t takes mu. A true return is consumed — predicates that
// acquire (try-lock) hold their acquisition when block returns. Panics
// with errAborted if the schedule fails first.
func (eng *engine) block(t *task, why string, ready func() bool, mu *sync.Mutex) {
	t.state, t.ready, t.mu, t.why = taskBlocked, ready, mu, why
	eng.blocked++
	eng.changed = true
	eng.pass(t, eng.choose(t, PointBlock, why))
}

// pass hands the token from t to next, unless next is t, and returns
// when t holds it again: t records next and parks its carrier, and Run
// resumes next's.
func (eng *engine) pass(t, next *task) {
	if next == t {
		return
	}
	if next == nil {
		panic(errAborted)
	}
	eng.next = next
	carriers[t.id].park(struct{}{})
	if eng.aborting {
		panic(errAborted)
	}
}

// current returns the active executor's token holder, nil when no
// executor runs. Under the package precondition the caller is that
// task.
func current() *task {
	if eng := active.Load(); eng != nil {
		return eng.holder
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
		t.eng.yield(t, p, detail)
	}
}

// Block parks the calling task until ready() reports true; the true
// return is consumed (a try-lock predicate holds the lock when Block
// returns). A no-op for goroutines that are not tasks — such callers
// must block by their own means.
func Block(why string, ready func() bool) {
	t := current()
	if t == nil {
		return
	}
	if t.eng.aborting {
		panic(errAborted)
	}
	if !ready() {
		t.eng.block(t, why, ready, nil)
	}
}

// LockAcquire cooperatively acquires mu on behalf of the calling
// task: a PointLock decision, then try-lock, parking on contention
// with the decision detail "lock <name>". Returns false when the
// caller is not a task, in which case the caller must acquire mu
// itself.
func LockAcquire(mu *sync.Mutex, name string) bool {
	t := current()
	if t == nil {
		return false
	}
	t.eng.yield(t, PointLock, name)
	if !mu.TryLock() {
		t.eng.block(t, t.eng.lockWhy(name), nil, mu)
	}
	return true
}

// lockWhy returns "lock <name>".
func (eng *engine) lockWhy(name string) string {
	why, ok := eng.lockWhys[name]
	if !ok {
		if eng.lockWhys == nil {
			eng.lockWhys = make(map[string]string)
		}
		why = "lock " + name
		eng.lockWhys[name] = why
	}
	return why
}
