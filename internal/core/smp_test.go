package core_test

// Multiprocessor storms on real goroutines, written with the workload
// package and run under uproc.GoroutineExecutor: simulated CPUs drive
// their processes through the full fault machinery concurrently,
// under memory pressure, sharing every kernel structure (frame pool,
// AST, quota cells, packs). Data must come out intact and the
// post-storm audits must be clean. Run with -race to exercise the
// ranked locking.

import (
	"fmt"
	"sync"
	"testing"

	"multics/internal/aim"
	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/directory"
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

func newWorkers(t *testing.T, k *core.Kernel, n int, f workload.Files) []*workload.Worker {
	t.Helper()
	ws, err := workload.NewWorkers(k, n, f)
	if err != nil {
		t.Fatal(err)
	}
	return ws
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

// stressConfig is the machine of the two-processor write/read storm:
// the two working sets exceed its pageable frames.
func stressConfig(c *core.Config) {
	c.MemFrames = 28
	c.WiredFrames = 8
	c.RootQuota = 4096
}

// writeReadRounds is the body of the two-processor storm: rounds of
// writing one word into each of the worker's 16 pages, then reading
// every one back.
func writeReadRounds(k *core.Kernel) func(w *workload.Worker) error {
	const pages = 16
	const rounds = 8
	return func(w *workload.Worker) error {
		base := hw.Word(1000 * (w.CPU.ID + 1))
		for r := 0; r < rounds; r++ {
			for pg := 0; pg < pages; pg++ {
				if err := k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords+r, base+hw.Word(pg)); err != nil {
					return fmt.Errorf("write r%d p%d: %w", r, pg, err)
				}
			}
			for pg := 0; pg < pages; pg++ {
				got, err := k.Read(w.CPU, w.Proc, w.Segno, pg*hw.PageWords+r)
				if err != nil {
					return fmt.Errorf("read r%d p%d: %w", r, pg, err)
				}
				if got != base+hw.Word(pg) {
					return fmt.Errorf("r%d p%d = %d, want %d", r, pg, got, base+hw.Word(pg))
				}
			}
		}
		return nil
	}
}

func TestSMPStress(t *testing.T) {
	k := boot(t, stressConfig)
	ws := newWorkers(t, k, 2, workload.Files{Prefix: "user"})
	if err := workload.Run(uproc.GoroutineExecutor{}, ws, writeReadRounds(k)); err != nil {
		t.Error(err)
	}
	// The storm must have caused real contention: evictions on a
	// shared frame pool.
	if evictions := k.Frames.Stats().Evictions; evictions == 0 {
		t.Error("no evictions; the stress fixture is too small")
	}
	// Every invariant still holds.
	if err := audited(k); err != nil {
		t.Errorf("after storm: %v", err)
	}
}

// TestSimSMPStressLosesNoWrite runs the TestSMPStress storm under the
// deterministic executor over several seeds. An evicted page's
// write-back can still be on its way to the disk when the other
// processor faults the page back in; the fault must wait for it, or it
// reads the record's previous contents and a word written before the
// eviction comes back stale.
func TestSimSMPStressLosesNoWrite(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		k := boot(t, stressConfig)
		ws := newWorkers(t, k, 2, workload.Files{Prefix: "user"})
		if err := workload.Run(uproc.SimExecutor{Seed: seed}, ws, writeReadRounds(k)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := audited(k); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSMPGateStress has four CPUs make interleaved gate calls —
// create, grow (quota-charged writes), read back, truncate, delete —
// against the shared directory hierarchy, quota cells, frame pool and
// packs. The storage accounting must return exactly to its pre-storm
// figures and every audit must be clean.
func TestSMPGateStress(t *testing.T) {
	const (
		nCPU   = 4
		rounds = 6
		pages  = 6
	)
	k := boot(t, func(c *core.Config) {
		c.Processors = nCPU
		c.MemFrames = 40 // pressure: four working sets contend
		c.WiredFrames = 8
		c.RootQuota = 4096
	})
	ws := newWorkers(t, k, nCPU, workload.Files{Prefix: "gate"})

	// Warm-up: one create/write/delete materializes the root
	// directory's entry page, so the baseline below is the kernel's
	// steady state — the storm must return to it exactly.
	w0 := ws[0]
	if _, err := k.CreateFile(w0.CPU, w0.Proc, nil, "warmup", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(w0.CPU, w0.Proc, []string{"warmup"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Write(w0.CPU, w0.Proc, segno, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.Delete(w0.CPU, w0.Proc, nil, "warmup"); err != nil {
		t.Fatal(err)
	}
	chargedBefore, allocatedBefore := balance(t, k)
	if chargedBefore != allocatedBefore {
		t.Fatalf("unbalanced before storm: %d charged vs %d allocated", chargedBefore, allocatedBefore)
	}

	err = workload.Run(uproc.GoroutineExecutor{}, ws, func(w *workload.Worker) error {
		wi := w.CPU.ID
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("w%d-r%d", wi, r)
			if _, err := k.CreateFile(w.CPU, w.Proc, nil, name, nil, aim.Bottom); err != nil {
				return err
			}
			segno, err := k.OpenPath(w.CPU, w.Proc, []string{name})
			if err != nil {
				return err
			}
			base := hw.Word(1000*(wi+1) + r)
			for pg := 0; pg < pages; pg++ {
				if err := k.Write(w.CPU, w.Proc, segno, pg*hw.PageWords+wi, base+hw.Word(pg)); err != nil {
					return err
				}
			}
			for pg := 0; pg < pages; pg++ {
				got, err := k.Read(w.CPU, w.Proc, segno, pg*hw.PageWords+wi)
				if err != nil {
					return err
				}
				if got != base+hw.Word(pg) {
					return fmt.Errorf("round %d page %d = %d, want %d", r, pg, got, base+hw.Word(pg))
				}
			}
			if err := k.Truncate(w.CPU, w.Proc, segno, 1); err != nil {
				return err
			}
			if err := k.Delete(w.CPU, w.Proc, nil, name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}

	// Everything created was deleted: the books must balance and
	// return to the pre-storm figures exactly.
	charged, allocated := balance(t, k)
	if charged != allocated {
		t.Errorf("after storm: %d pages charged vs %d records allocated", charged, allocated)
	}
	if charged != chargedBefore || allocated != allocatedBefore {
		t.Errorf("after storm: charged/allocated %d/%d, want the pre-storm %d/%d",
			charged, allocated, chargedBefore, allocatedBefore)
	}
	if err := audited(k); err != nil {
		t.Error(err)
	}
}

// TestSMPZeroEvictionLosesNoWrite runs the oscillation storm on four
// real goroutines. The write-back path classifies an evicted page as
// all-zeros by scanning its frame, but a reference holding a cached
// PTW translation on another CPU may complete against the old frame
// until the shootdown broadcast returns — so a store can land after
// the scan. The evictor must re-validate the zero verdict once the
// broadcast has returned and route such a page through the dirty
// write-back instead of freeing its record; otherwise the store is
// silently discarded and the page rereads zero. Each worker owns its
// pages exclusively, so the quota-trap first-touch path, which has no
// descriptor-lock serialization, is only ever taken by one processor
// per page.
func TestSMPZeroEvictionLosesNoWrite(t *testing.T) {
	const nCPU = 4
	k := boot(t, func(c *core.Config) {
		c.Processors = nCPU
		c.MemFrames = 24 // working sets dwarf the pageable frames
		c.WiredFrames = 8
		c.RootQuota = 4096
	})
	if k.AssocBus == nil {
		t.Fatal("associative memory should be on by default")
	}
	ws := newWorkers(t, k, nCPU, workload.Files{Prefix: "osc", Pages: 8})
	if err := workload.Run(uproc.GoroutineExecutor{}, ws, func(w *workload.Worker) error {
		return workload.Oscillate(k, w, 6, 8)
	}); err != nil {
		t.Error(err)
	}

	st := k.Frames.Stats()
	if st.Evictions == 0 {
		t.Error("storm produced no evictions; the test applied no pressure")
	}
	if st.ZeroEvictions == 0 {
		t.Error("storm reclaimed no zero pages; the racing path was not exercised")
	}
	if st.Shootdowns == 0 {
		t.Error("storm produced no shootdowns; the cross-CPU invalidation path was not exercised")
	}
	if st.WriteBackErrors != 0 {
		t.Errorf("storm recorded %d write-back errors with no fault injection", st.WriteBackErrors)
	}

	// The oscillation created and released storage charges constantly;
	// at quiesce the books must balance exactly.
	if charged, allocated := balance(t, k); charged != allocated {
		t.Errorf("after storm: %d pages charged vs %d records allocated", charged, allocated)
	}
	for i, w := range ws {
		if err := k.Delete(w.CPU, w.Proc, nil, fmt.Sprintf("osc%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := audited(k); err != nil {
		t.Errorf("after teardown: %v", err)
	}
}

// TestSMPShootdownNoStaleTranslation is the associative-memory
// analogue of the gate storm. Four CPUs share one public segment and
// rewrite private churn files under heavy frame pressure, so pages of
// the shared segment are evicted and re-faulted while other processors
// hold cached translations of them. Every read verifies the exact word
// written: a stale translation surviving a shootdown would read a
// frame reused for someone else's page and return the wrong value.
//
// All pages are materialized serially before the storm: concurrent
// first touches of one page take the quota-trap path, which has no
// descriptor-lock serialization, so the storm drives all its paging
// through the missing-page path, which the descriptor lock serializes.
func TestSMPShootdownNoStaleTranslation(t *testing.T) {
	const (
		nCPU       = 4
		rounds     = 5
		sharedPgs  = 6
		churnPgs   = 8
		churnFiles = 2
	)
	k := boot(t, func(c *core.Config) {
		c.Processors = nCPU
		c.MemFrames = 40 // far smaller than the combined working sets
		c.WiredFrames = 8
		c.RootQuota = 4096
	})
	if k.AssocBus == nil {
		t.Fatal("associative memory should be on by default")
	}

	// Each worker's segment is the shared world-writable one; every
	// page carries a sentinel word no worker overwrites, so eviction
	// never finds the page zero and reverts it to the quota-trapped
	// state.
	ws := make([]*workload.Worker, nCPU)
	for i := range ws {
		p, err := k.CreateProcess(fmt.Sprintf("shoot%d.x", i), aim.Bottom)
		if err != nil {
			t.Fatal(err)
		}
		k.Attach(k.CPUs[i], p)
		ws[i] = &workload.Worker{CPU: k.CPUs[i], Proc: p}
	}
	w0 := ws[0]
	if _, err := k.CreateFile(w0.CPU, w0.Proc, nil, "shared", directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		segno, err := k.OpenPath(w.CPU, w.Proc, []string{"shared"})
		if err != nil {
			t.Fatal(err)
		}
		w.Segno = segno
	}
	for pg := 0; pg < sharedPgs; pg++ {
		if err := k.Write(w0.CPU, w0.Proc, w0.Segno, pg*hw.PageWords+nCPU, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Each worker's private churn files, fully materialized. Their
	// combined working sets dwarf the pageable frames, so every round
	// of rewrites forces evictions of other workers' pages.
	churn := make([][]int, nCPU)
	for wi, w := range ws {
		for cf := 0; cf < churnFiles; cf++ {
			name := fmt.Sprintf("churn%d-%d", wi, cf)
			if _, err := k.CreateFile(w.CPU, w.Proc, nil, name, nil, aim.Bottom); err != nil {
				t.Fatal(err)
			}
			cseg, err := k.OpenPath(w.CPU, w.Proc, []string{name})
			if err != nil {
				t.Fatal(err)
			}
			for pg := 0; pg < churnPgs; pg++ {
				if err := k.Write(w.CPU, w.Proc, cseg, pg*hw.PageWords, hw.Word(wi*churnPgs+pg+1)); err != nil {
					t.Fatal(err)
				}
			}
			churn[wi] = append(churn[wi], cseg)
		}
	}

	charged, allocated := balance(t, k)
	if charged != allocated {
		t.Fatalf("unbalanced before storm: %d charged vs %d allocated", charged, allocated)
	}
	chargedBefore := charged

	err := workload.Run(uproc.GoroutineExecutor{}, ws, func(w *workload.Worker) error {
		wi := w.CPU.ID
		for r := 0; r < rounds; r++ {
			// Write this worker's slot of every shared page; the churn
			// below evicts these pages out from under the other
			// processors' caches.
			base := hw.Word(10000*(wi+1) + 100*r)
			for pg := 0; pg < sharedPgs; pg++ {
				if err := k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords+wi, base+hw.Word(pg)); err != nil {
					return err
				}
			}
			for _, cseg := range churn[wi] {
				for pg := 0; pg < churnPgs; pg++ {
					if err := k.Write(w.CPU, w.Proc, cseg, pg*hw.PageWords+1+r, hw.Word(wi*churnPgs+pg+1)); err != nil {
						return err
					}
				}
			}
			// Read-after-evict: the shared pages were likely evicted
			// and reloaded; a stale cached PTW would now point at a
			// recycled frame.
			for pg := 0; pg < sharedPgs; pg++ {
				got, err := k.Read(w.CPU, w.Proc, w.Segno, pg*hw.PageWords+wi)
				if err != nil {
					return err
				}
				if got != base+hw.Word(pg) {
					return fmt.Errorf("round %d shared page %d slot %d = %d, want %d (stale translation?)",
						r, pg, wi, got, base+hw.Word(pg))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}

	st := k.Frames.Stats()
	if st.Evictions == 0 {
		t.Error("storm produced no evictions; the test applied no pressure")
	}
	if st.Shootdowns == 0 {
		t.Error("storm produced no shootdowns; the cross-CPU invalidation path was not exercised")
	}
	if st.AssocHits == 0 {
		t.Error("storm produced no associative hits; the cache was not exercised")
	}

	// Nothing was created or destroyed by the storm: the books must
	// still balance at the pre-storm figure exactly.
	charged, allocated = balance(t, k)
	if charged != allocated {
		t.Errorf("after storm: %d pages charged vs %d records allocated", charged, allocated)
	}
	if charged != chargedBefore {
		t.Errorf("after storm: %d pages charged, want the pre-storm %d", charged, chargedBefore)
	}
	// Serial teardown: the churn files go, and the books must follow.
	for wi, w := range ws {
		for cf := 0; cf < churnFiles; cf++ {
			if err := k.Delete(w.CPU, w.Proc, nil, fmt.Sprintf("churn%d-%d", wi, cf)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := audited(k); err != nil {
		t.Errorf("after teardown: %v", err)
	}
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

// TestConcurrentFaultsOnOnePage: two CPUs, one missing page. The
// descriptor-lock hardware lets exactly one service the fault; the
// other waits and then proceeds. No interpretive retranslation exists
// anywhere.
func TestConcurrentFaultsOnOnePage(t *testing.T) {
	k := boot(t, nil)
	ws := sharedFile(t, k)
	w0 := ws[0]
	if err := k.Write(w0.CPU, w0.Proc, w0.Segno, 0, 42); err != nil {
		t.Fatal(err)
	}
	// Evict the page by deactivating the segment, then reconnect.
	e, err := w0.Proc.KST().Entry(w0.Segno)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Segs.Deactivate(e.UID); err != nil {
		t.Fatal(err)
	}
	if err := workload.Run(uproc.GoroutineExecutor{}, ws, func(w *workload.Worker) error {
		return workload.Scan(k, w, 1, 42)
	}); err != nil {
		t.Error(err)
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
