package core_test

// Multiprocessor tests that need their own harness: real concurrency
// in the quantum loop, and the missing-segment activation race swept
// under the deterministic executor. The multiprocessor storms are
// catalogue scenarios in internal/workload, run on goroutines under
// -race and under the deterministic executor by its catalogue loops.

import (
	"fmt"
	"sync"
	"testing"

	"multics/internal/aim"
	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
	"multics/internal/uproc"
	"multics/internal/workload"
)

func boot(t *testing.T, mutate func(*core.Config)) *core.Kernel {
	t.Helper()
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// balance returns the global storage accounting of k: pages charged
// across every quota cell and records allocated across every pack.
// audit.Balance meters its probes, so read the meter before calling.
func balance(t *testing.T, k *core.Kernel) (charged, allocated int) {
	t.Helper()
	charged, allocated, problems := audit.Balance(k)
	if len(problems) != 0 {
		t.Fatalf("accounting probes failed: %v", problems)
	}
	return charged, allocated
}

// audited runs a full audit pass and reports its findings as an error.
func audited(k *core.Kernel) error {
	if r := audit.Run(k); !r.Clean() {
		return fmt.Errorf("audit: %v", r.Findings)
	}
	return nil
}

// TestRunQuantumWithGoroutines proves the scheduler dispatches
// distinct processes to distinct processors concurrently: every
// processor's goroutine must be inside the quantum body at the same
// instant for the barrier to release, each processor must run one of
// the processes, and every dispatch must load a process state.
func TestRunQuantumWithGoroutines(t *testing.T) {
	const nCPU = 2
	k := boot(t, func(c *core.Config) {
		c.Processors = nCPU
		c.TraceEvents = 4096
	})
	for i := 0; i < nCPU; i++ {
		if _, err := k.CreateProcess(fmt.Sprintf("par%d.x", i), aim.Bottom); err != nil {
			t.Fatal(err)
		}
	}
	var barrier sync.WaitGroup
	barrier.Add(nCPU)
	var ranOn [nCPU]uint64
	ran, err := k.Procs.RunQuantumWith(uproc.GoroutineExecutor{}, k.CPUs, 1, func(cpu *hw.Processor, p *uproc.Process) {
		k.Attach(cpu, p)
		ranOn[cpu.ID] = p.ID()
		barrier.Done()
		barrier.Wait() // releases only when every processor is in its body
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != nCPU {
		t.Fatalf("ran %d processes, want %d", ran, nCPU)
	}
	if ranOn[0] == 0 || ranOn[1] == 0 || ranOn[0] == ranOn[1] {
		t.Errorf("processes run per processor = %v, want a distinct process on each", ranOn)
	}
	loads := 0
	for _, e := range k.Trace.Events() {
		if e.Kind == trace.EvProcessSwap && e.Arg1 == 0 {
			loads++
		}
	}
	if loads != nCPU {
		t.Errorf("%d process-state loads traced, want %d", loads, nCPU)
	}
	if bad := k.Procs.Audit(); len(bad) != 0 {
		t.Errorf("process audit: %v", bad)
	}
}

// TestAttachOffTaskChargesItsProcessor pins span attribution after an
// attach made off any task: a process the test's goroutine attaches to
// processor 1 is charged the spans processor 1's task opens.
func TestAttachOffTaskChargesItsProcessor(t *testing.T) {
	k := boot(t, func(c *core.Config) {
		c.Processors = 2
		c.TraceEvents = 4096
	})
	p, err := k.CreateProcess("alice.sys", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	k.Attach(k.CPUs[1], p)
	before := k.Trace.Snapshot().Procs[p.ID()]
	if err := (uproc.SimExecutor{Seed: 1}).Run(k.CPUs[1:], func(cpu *hw.Processor) {
		if _, err := k.CreateFile(cpu, p, nil, "f", nil, aim.Bottom); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := k.Trace.Snapshot().Procs[p.ID()]
	if got.Spans <= before.Spans || got.Cycles <= before.Cycles {
		t.Errorf("process %d charged %+v after processor 1's gate call, %+v before", p.ID(), got, before)
	}
}

// TestCreationChargedToNoProcess: a process's creation is not the
// work of the process its processor runs, so creating b while a is
// attached leaves a's account at 0, and a is still charged for what it
// does afterwards.
func TestCreationChargedToNoProcess(t *testing.T) {
	k := boot(t, func(c *core.Config) { c.TraceEvents = 4096 })
	var a *uproc.Process
	var afterCreate, afterWork trace.ProcStats
	if err := (uproc.SimExecutor{Seed: 1}).Run(k.CPUs[:1], func(cpu *hw.Processor) {
		var err error
		if a, err = k.CreateProcess("a.x", aim.Bottom); err != nil {
			t.Error(err)
			return
		}
		k.Attach(cpu, a)
		if _, err := k.CreateProcess("b.x", aim.Bottom); err != nil {
			t.Error(err)
			return
		}
		afterCreate = k.Trace.Snapshot().Procs[a.ID()]
		if _, err := k.CreateFile(cpu, a, nil, "f", nil, aim.Bottom); err != nil {
			t.Error(err)
		}
		afterWork = k.Trace.Snapshot().Procs[a.ID()]
	}); err != nil {
		t.Fatal(err)
	}
	if afterCreate != (trace.ProcStats{}) {
		t.Errorf("process a charged %+v for creating b", afterCreate)
	}
	if afterWork.Spans == 0 || afterWork.Cycles == 0 {
		t.Errorf("process a charged %+v for its own file creation, want its spans", afterWork)
	}
}

// sharedFile attaches one process to the first two processors of k and
// gives it one file, returning a worker per processor on that file.
func sharedFile(t *testing.T, k *core.Kernel) []*workload.Worker {
	t.Helper()
	p, err := k.CreateProcess("alice.sys", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	k.Attach(k.CPUs[0], p)
	k.Attach(k.CPUs[1], p)
	if _, err := k.CreateFile(k.CPUs[0], p, nil, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(k.CPUs[0], p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	return []*workload.Worker{
		{CPU: k.CPUs[0], Proc: p, Segno: segno},
		{CPU: k.CPUs[1], Proc: p, Segno: segno},
	}
}

// TestSweepConcurrentSegmentActivation pins the missing-segment
// activation race: two processors take the missing-segment fault on
// one never-activated segment together. Both can find it inactive;
// the one that activates second must connect to the segment the first
// activated rather than fail. The sweep preempts at every lock
// decision, so some schedules put one processor's lookup between the
// other's lookup and its activation.
func TestSweepConcurrentSegmentActivation(t *testing.T) {
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointLock
		},
	}, func(strat schedsim.Strategy) error {
		k := boot(t, func(c *core.Config) { c.RootQuota = 4096 })
		ws := sharedFile(t, k)
		// Each processor reads its own page, so the only contended
		// step is the activation of the segment itself.
		if err := workload.Run(uproc.SimExecutor{Strategy: strat}, ws, func(w *workload.Worker) error {
			got, err := k.Read(w.CPU, w.Proc, w.Segno, w.CPU.ID*hw.PageWords)
			if err != nil {
				return err
			}
			if got != 0 {
				return fmt.Errorf("fresh page %d reads %d", w.CPU.ID, got)
			}
			return nil
		}); err != nil {
			return err
		}
		return audited(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedules < 2 || rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous: %d schedules, %d lock decisions", rep.Schedules, rep.WindowDecisions)
	}
	t.Logf("%d schedules, %d lock decisions, truncated=%v", rep.Schedules, rep.WindowDecisions, rep.Truncated)
}
