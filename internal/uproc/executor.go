package uproc

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

// An Executor runs one body per simulated processor. Two
// implementations exist:
//
//   - SimExecutor, the deterministic virtual-time model — one
//     cooperative schedsim task per processor, interleaved by a seeded
//     strategy at the kernel's yield points. Each task is bound to its
//     processor, so the trace events, spans and cycles of the body are
//     attributed to it. Identical seeds replay identical schedules,
//     byte-for-byte identical traces. Every measured or traced
//     multiprocessor run uses it.
//   - GoroutineExecutor — one real goroutine per hw.Processor,
//     interleaved by the Go runtime. It exercises real memory orderings
//     and is what -race storms run. Its goroutines are not bound: they
//     charge the meter's total only.
type Executor interface {
	// Name labels the executor in test output and failure reports.
	Name() string
	// Run runs body once per processor and returns when every body
	// has. Its error is the executor's own (a schedsim Failure); the
	// bodies report theirs by their own means.
	Run(cpus []*hw.Processor, body func(cpu *hw.Processor)) error
}

// GoroutineExecutor is the real-goroutine executor.
type GoroutineExecutor struct{}

// Name implements Executor.
func (GoroutineExecutor) Name() string { return "goroutines" }

// ErrInsideSim refuses a GoroutineExecutor run while a sim executor
// runs: schedsim names the running context by its token holder, so a
// goroutine of its own would be taken for the holder.
var ErrInsideSim = errors.New("uproc: goroutine executor started while a sim executor runs")

// Run implements Executor. It is the kernel's only go statement, and
// it refuses to start while a sim executor runs (ErrInsideSim).
func (GoroutineExecutor) Run(cpus []*hw.Processor, body func(cpu *hw.Processor)) error {
	if schedsim.Running() {
		return ErrInsideSim
	}
	var wg sync.WaitGroup
	for _, cpu := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(cpu)
		}()
	}
	wg.Wait()
	return nil
}

// SimExecutor is the deterministic virtual-time executor: the
// processors run as cooperative schedsim tasks named cpu<id>, each
// bound to its processor (trace.BindCPU), under Strategy (Random(Seed)
// when nil), yielding at every instrumented kernel point. Any
// invariant panic or deadlock surfaces as a *schedsim.Failure carrying
// Seed.
type SimExecutor struct {
	Seed     int64
	Strategy schedsim.Strategy
}

// Name implements Executor.
func (SimExecutor) Name() string { return "schedsim" }

// Run implements Executor. A warm run allocates nothing: the schedsim
// handle stays on the stack, the task functions come from the spare
// simRun, the task names from cpuNames.
func (e SimExecutor) Run(cpus []*hw.Processor, body func(cpu *hw.Processor)) error {
	ex := schedsim.New(schedsim.Config{
		Name:     "uproc",
		Seed:     e.Seed,
		Strategy: e.Strategy,
	})
	r := spareRun.Swap(nil)
	if r == nil {
		r = new(simRun)
	}
	r.cpus, r.body = cpus, body
	for i, cpu := range cpus {
		ex.Go(cpuName(cpu.ID), r.task(i))
	}
	err := ex.Run()
	r.cpus, r.body = nil, nil
	spareRun.Store(r)
	return err
}

// A simRun is what a SimExecutor run's tasks run: task i binds itself
// to cpus[i] and runs body there. Its task functions are built once
// per slot and kept, and runs reuse the spare simRun, so a warm run
// builds no closure.
type simRun struct {
	cpus  []*hw.Processor
	body  func(cpu *hw.Processor)
	tasks []func()
}

// spareRun is the simRun the last SimExecutor run to finish left.
var spareRun atomic.Pointer[simRun]

// task returns slot i's task function.
func (r *simRun) task(i int) func() {
	for len(r.tasks) <= i {
		slot := len(r.tasks)
		r.tasks = append(r.tasks, func() { r.run(slot) })
	}
	return r.tasks[i]
}

func (r *simRun) run(slot int) {
	cpu := r.cpus[slot]
	defer trace.BindCPU(cpu.ID)()
	r.body(cpu)
}

// cpuNames are the task names of processors 0 to 63, the processors a
// trace can bind, built once.
var cpuNames = func() (names [64]string) {
	for i := range names {
		names[i] = "cpu" + strconv.Itoa(i)
	}
	return names
}()

// cpuName is the task name of processor id.
func cpuName(id int) string {
	if id >= 0 && id < len(cpuNames) {
		return cpuNames[id]
	}
	return "cpu" + strconv.Itoa(id)
}

// RunQuantumWith runs the scheduler's quantum loop on every processor
// in cpus under the given executor, each dispatching the
// longest-waiting process from the one ready queue, running body with
// the process bound to that processor, and preempting. Each processor
// runs at most n processes; it stops when the ready set drains, and
// sleeps on the free-pool eventcount when the virtual processors are
// all busy. The total across processors is returned with the first
// error, if any.
func (m *Manager) RunQuantumWith(ex Executor, cpus []*hw.Processor, n int, body func(cpu *hw.Processor, p *Process)) (int, error) {
	ph := m.sparePhase.Swap(nil)
	if ph == nil {
		ph = &quantumPhase{m: m}
		ph.worker = ph.work
	}
	ph.n, ph.body, ph.total, ph.first = n, body, 0, nil
	err := ex.Run(cpus, ph.worker)
	if err == nil {
		err = ph.first
	}
	total := ph.total
	ph.body, ph.first = nil, nil
	m.sparePhase.Store(ph)
	return total, err
}

// A quantumPhase is one RunQuantumWith call's state: what its workers
// run and what they report. The manager keeps the last one finished,
// worker method value included, so a warm phase allocates nothing.
type quantumPhase struct {
	m      *Manager
	n      int
	body   func(cpu *hw.Processor, p *Process)
	worker func(cpu *hw.Processor)

	mu    sync.Mutex
	total int
	first error
}

// work is one processor's quantum loop.
func (ph *quantumPhase) work(cpu *hw.Processor) {
	ran, err := ph.m.workerLoop(cpu, ph.n, ph.body)
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.total += ran
	if ph.first == nil {
		ph.first = err
	}
}
