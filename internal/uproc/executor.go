package uproc

import (
	"errors"
	"slices"
	"strconv"
	"sync"

	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

// An Executor runs one body per simulated processor, with the
// context that runs it bound to that processor, so the trace events
// and cycles of the body are attributed to it. It is the one place a
// processor is bound. Two implementations exist:
//
//   - GoroutineExecutor — one real goroutine per hw.Processor,
//     interleaved by the Go runtime. It exercises real memory orderings
//     and is what -race storms run.
//   - SimExecutor, the deterministic virtual-time model — one
//     cooperative schedsim task per processor, interleaved by a seeded
//     strategy at the kernel's yield points. Identical seeds replay
//     identical schedules, byte-for-byte identical traces.
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
			onCPU(cpu, body)
		}()
	}
	wg.Wait()
	return nil
}

// SimExecutor is the deterministic virtual-time executor: the
// processors run as cooperative schedsim tasks named cpu<id> under
// Strategy (Random(Seed) when nil), yielding at every instrumented
// kernel point. Any invariant panic or deadlock surfaces as a
// *schedsim.Failure carrying Seed.
type SimExecutor struct {
	Seed     int64
	Strategy schedsim.Strategy
}

// Name implements Executor.
func (SimExecutor) Name() string { return "schedsim" }

// Run implements Executor.
func (e SimExecutor) Run(cpus []*hw.Processor, body func(cpu *hw.Processor)) error {
	ex := schedsim.New(schedsim.Config{
		Name:     "uproc",
		Seed:     e.Seed,
		Strategy: e.Strategy,
	})
	for _, cpu := range cpus {
		ex.Go("cpu"+strconv.Itoa(cpu.ID), func() { onCPU(cpu, body) })
	}
	return ex.Run()
}

// onCPU runs body with the calling context bound to cpu.
func onCPU(cpu *hw.Processor, body func(cpu *hw.Processor)) {
	defer trace.BindCPU(cpu.ID)()
	body(cpu)
}

// RunQuantumWith is the true-multiprocessor form of RunQuantum: it
// runs the quantum loop on every processor under the given executor,
// each dispatching from its own run queue (stealing when it drains),
// running body with the process bound to that processor, and
// preempting. Each processor runs at most n processes; it stops when
// the ready set drains, and sleeps on the free-pool eventcount when
// the virtual processors are all busy. The total across processors is
// returned with the first error, if any.
func (m *Manager) RunQuantumWith(ex Executor, cpus []*hw.Processor, n int, body func(cpu *hw.Processor, p *Process)) (int, error) {
	var (
		mu    sync.Mutex
		total int
		first error
	)
	err := ex.Run(cpus, func(cpu *hw.Processor) {
		ran, err := m.workerLoop(slices.Index(cpus, cpu), cpu, n, body)
		mu.Lock()
		defer mu.Unlock()
		total += ran
		if first == nil {
			first = err
		}
	})
	if err == nil {
		err = first
	}
	return total, err
}
