package core_test

// Whole-kernel tests under the deterministic virtual-time executor:
// seeded random interleavings of a multiprocessor storm, and bounded
// systematic sweeps that pin the races earlier changes fixed — the
// zero-reclaim lost-write window, the quota-growth trap-vs-reclaim
// window and the disk pipeline's completion window — by deliberately
// scheduling around their marked yield points instead of hoping a
// goroutine storm happens to hit them.

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// schedSeed seeds the random-interleaving storms. A failing schedule
// prints its seed; rerun with -sched-seed=<seed> to replay it exactly.
var schedSeed = flag.Int64("sched-seed", 1977, "seed for deterministic schedule simulation; a failure prints the seed that reproduces it")

// simStorm runs the oscillation storm of TestSMPZeroEvictionLosesNoWrite
// on two processors as cooperative schedsim tasks under strat: every
// worker writes, verifies and re-zeroes its own eight materialized
// pages, so any interleaving that loses a write fails.
func simStorm(t *testing.T, strat schedsim.Strategy, seed int64, rounds int) (*core.Kernel, error) {
	t.Helper()
	k := boot(t, func(c *core.Config) {
		c.Processors = 2
		c.MemFrames = 24
		c.WiredFrames = 8
		c.RootQuota = 4096
	})
	ws := newWorkers(t, k, 2, workload.Files{Prefix: "sim", Pages: 8})
	return k, workload.Run(uproc.SimExecutor{Seed: seed, Strategy: strat}, ws, func(w *workload.Worker) error {
		return workload.Oscillate(k, w, rounds, 8)
	})
}

// TestSimStormRandomInterleavings runs the storm under several seeded
// random schedules. Each run is a pure function of its seed: a failure
// names the seed, and -sched-seed replays it.
func TestSimStormRandomInterleavings(t *testing.T) {
	for i := int64(0); i < 4; i++ {
		seed := *schedSeed + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			k, err := simStorm(t, schedsim.Random(seed), seed, 3)
			if err != nil {
				t.Fatal(err)
			}
			if st := k.Frames.Stats(); st.Evictions == 0 {
				t.Error("storm produced no evictions: no memory pressure, nothing exercised")
			}
			if err := audited(k); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSimStormIdenticalSeedsIdenticalSchedules is the replay property
// at whole-kernel scale: the same seed over the same workload takes
// the same scheduling decisions, step for step.
func TestSimStormIdenticalSeedsIdenticalSchedules(t *testing.T) {
	run := func() []schedsim.Decision {
		rec := schedsim.Record(schedsim.Random(*schedSeed))
		if _, err := simStorm(t, rec, *schedSeed, 2); err != nil {
			t.Fatal(err)
		}
		return rec.Decisions()
	}
	sameSchedule(t, run(), run())
}

func sameSchedule(t *testing.T, d1, d2 []schedsim.Decision) {
	t.Helper()
	if len(d1) != len(d2) {
		t.Fatalf("schedule lengths differ: %d vs %d decisions", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].String() != d2[i].String() {
			t.Fatalf("schedules diverge at step %d:\n%v\n%v", i, d1[i], d2[i])
		}
	}
}

// sweepStorm is the two-task harness both window sweeps schedule
// around. The evictor's task comes first, so the sticky baseline runs
// it to completion while the toucher sits parked — runnable — at its
// start; every zero-reclaim of the toucher's pages is then a marked
// decision with a real alternative, and a single forced deviation
// drops the toucher into the middle of the reclaim with its stale
// cached translations intact.
func sweepStorm(strat schedsim.Strategy, pgs int) (*core.Kernel, error) {
	cfg := core.DefaultConfig()
	cfg.Processors = 2
	cfg.MemFrames = 32
	cfg.WiredFrames = 8
	cfg.RootQuota = 4096
	k, err := core.Boot(cfg)
	if err != nil {
		return nil, err
	}
	// Only the toucher's pages are materialized and re-zeroed: every
	// one exists, holds a record, reads zero, and has its translation
	// cached in its owner's associative memory — the precondition of
	// both windows.
	touchers, err := workload.NewWorkers(k, 1, workload.Files{Prefix: "sw", Pages: pgs})
	if err != nil {
		return nil, err
	}
	p, err := k.CreateProcess("sw1.x", aim.Bottom)
	if err != nil {
		return nil, err
	}
	toucher := touchers[0]
	evictor := &workload.Worker{CPU: k.CPUs[1], Proc: p}
	k.Attach(evictor.CPU, p)
	if _, err := k.CreateFile(evictor.CPU, p, nil, "sw1", nil, aim.Bottom); err != nil {
		return nil, err
	}
	if evictor.Segno, err = k.OpenPath(evictor.CPU, p, []string{"sw1"}); err != nil {
		return nil, err
	}

	const evictPages = 24
	err = workload.Run(uproc.SimExecutor{Strategy: strat}, []*workload.Worker{evictor, toucher}, func(w *workload.Worker) error {
		if w == evictor {
			for pg := 0; pg < evictPages; pg++ {
				if err := k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords, hw.Word(1000+pg)); err != nil {
					return fmt.Errorf("evictor write page %d: %w", pg, err)
				}
			}
			return nil
		}
		for pg := 0; pg < pgs; pg++ {
			off := pg * hw.PageWords
			if err := k.Write(w.CPU, w.Proc, w.Segno, off, 10); err != nil {
				return fmt.Errorf("toucher write page %d: %w", pg, err)
			}
			schedsim.Yield(schedsim.PointYield, "post-write")
			got, err := k.Read(w.CPU, w.Proc, w.Segno, off)
			if err != nil {
				return fmt.Errorf("toucher read page %d: %w", pg, err)
			}
			if got != 10 {
				return fmt.Errorf("toucher lost write: page %d read %d, want 10", pg, got)
			}
		}
		return nil
	})
	if err != nil {
		return k, err
	}
	// Durability: the toucher's values must survive whatever
	// evictions the schedule produced.
	for pg := 0; pg < pgs; pg++ {
		got, err := k.Read(toucher.CPU, toucher.Proc, toucher.Segno, pg*hw.PageWords)
		if err != nil {
			return k, fmt.Errorf("post-run read page %d: %w", pg, err)
		}
		if got != 10 {
			return k, fmt.Errorf("post-run page %d reads %d, want 10: write lost to reclaim", pg, got)
		}
	}
	return k, audited(k)
}

// starved reports a schedule that ran a reference's whole retry budget
// out. An adversarial schedule may legitimately park the reclaiming
// task forever while the faulter retries — that is scheduler
// starvation, not a kernel bug — so sweeps tolerate these schedules
// (their counters still record how far they got) rather than failing.
func starved(err error) bool {
	return err != nil && strings.Contains(err.Error(), "retry budget exhausted")
}

// A tally counts a sweep's schedules: those that completed — starved
// ones are tolerated, not counted — and, of those, the ones that showed
// the race at hand; hits sums its count over every schedule.
type tally struct {
	completed, completedWithHit int
	hits                        int64
}

// note records one schedule's error and race count and returns the
// error the sweep should see.
func (c *tally) note(err error, hits int64) error {
	c.hits += hits
	if starved(err) {
		return nil
	}
	if err == nil {
		c.completed++
		if hits > 0 {
			c.completedWithHit++
		}
	}
	return err
}

// TestSweepZeroReclaimWindow systematically explores preemptions
// around the marked zero-reclaim window — the gap between the zero
// scan and the shootdown broadcast in writeBackBatch. Every completed
// schedule must preserve the toucher's writes and the storage
// accounting, and at least one completed schedule must actually land
// a store in the window (ZeroRescues fires), proving the sweep
// exercised the race rather than passing vacuously.
func TestSweepZeroReclaimWindow(t *testing.T) {
	var zeroEvictions int64
	var c tally
	maxSched, maxPre := schedsim.EnvBudget(48, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointMark && d.Detail == "zero-reclaim"
		},
	}, func(strat schedsim.Strategy) error {
		k, err := sweepStorm(strat, 3)
		var rescues int64
		if k != nil {
			st := k.Frames.Stats()
			rescues = st.ZeroRescues
			zeroEvictions += st.ZeroEvictions
		}
		return c.note(err, rescues)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 || zeroEvictions == 0 {
		t.Fatalf("sweep vacuous: no zero-reclaim decisions opened (%d schedules, %d in-window, %d zero evictions)",
			rep.Schedules, rep.WindowDecisions, zeroEvictions)
	}
	if c.completed == 0 {
		t.Fatal("every schedule was starved: the sweep verified nothing")
	}
	if c.completedWithHit == 0 {
		t.Fatalf("no completed schedule landed a store in the zero-reclaim window (%d schedules, %d in-window, %d rescues total): the race was not exercised",
			rep.Schedules, rep.WindowDecisions, c.hits)
	}
	t.Logf("%d schedules (%d completed, %d with a rescue), %d in-window decisions, %d zero evictions, %d rescues, truncated=%v",
		rep.Schedules, c.completed, c.completedWithHit, rep.WindowDecisions, zeroEvictions, c.hits, rep.Truncated)
}

// TestSweepQuotaGrowthWindow explores the trap-vs-reclaim window:
// after the reclaim frees a zero page's record but before the file map
// records it, a refault sees the quota trap while the map still names
// a stored record — segment.Grow must refuse with ErrGrowRace and the
// reference must retry to a correct result. The sweep deviates both at
// the reclaim mark (to drop the toucher into the window) and at the
// grow-race-retry mark (to hand the token back so the reclaim
// completes and the retry resolves). GrowRaces in a completed schedule
// proves the window was entered and survived.
func TestSweepQuotaGrowthWindow(t *testing.T) {
	var c tally
	maxSched, maxPre := schedsim.EnvBudget(48, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointMark
		},
	}, func(strat schedsim.Strategy) error {
		k, err := sweepStorm(strat, 3)
		var races int64
		if k != nil {
			races = k.Cells.Stats().GrowRaces
		}
		return c.note(err, races)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatal("sweep vacuous: no marked decisions in any schedule")
	}
	if c.hits == 0 {
		t.Fatalf("no schedule entered the quota-growth race window (%d schedules, %d in-window decisions): the race was not exercised",
			rep.Schedules, rep.WindowDecisions)
	}
	if c.completed == 0 {
		t.Fatal("every schedule was starved: the sweep verified nothing")
	}
	if c.completedWithHit == 0 {
		t.Fatalf("the grow race fired only in starved schedules (%d schedules, %d races): no schedule shows the retry resolving correctly",
			rep.Schedules, c.hits)
	}
	t.Logf("%d schedules (%d completed, %d with a race), %d in-window decisions, %d grow races, truncated=%v",
		rep.Schedules, c.completed, c.completedWithHit, rep.WindowDecisions, c.hits, rep.Truncated)
}

// diskSweepStorm races two processors of one process through
// sequential reads of the same freshly-deactivated file, so every
// page is a demand read from disk and both tasks contend for every
// record. It returns an error for any schedule that loses data,
// double-loads a page, or unbalances the frame tables.
//
// The device queue brackets every transfer with two marked decisions —
// PointDiskQueue when a request joins a pack's elevator queue and
// PointDisk when its transfer completes. The descriptor-lock hardware
// must let exactly one processor service each missing page: the loser
// waits out the lock bit and rereferences, it never queues a second
// read of the same record into a second frame.
func diskSweepStorm(t *testing.T, strat schedsim.Strategy, pgs int) error {
	k := boot(t, func(c *core.Config) {
		c.Processors = 2
		c.MemFrames = 64 // roomy: any eviction here would muddy the fault count
		c.WiredFrames = 8
		c.RootQuota = 4096
	})
	ws := sharedFile(t, k)
	w0 := ws[0]
	for pg := 0; pg < pgs; pg++ {
		if err := k.Write(w0.CPU, w0.Proc, w0.Segno, pg*hw.PageWords, hw.Word(100+pg)); err != nil {
			return err
		}
	}
	// Force every page out to its disk record: the next touch of any
	// page is a demand read on the pack's device queue.
	e, err := w0.Proc.KST().Entry(w0.Segno)
	if err != nil {
		return err
	}
	if err := k.Segs.Deactivate(e.UID); err != nil {
		return err
	}
	base := k.Frames.Stats()
	if err := workload.Run(uproc.SimExecutor{Strategy: strat}, ws, func(w *workload.Worker) error {
		return workload.Scan(k, w, pgs, 100)
	}); err != nil {
		return err
	}
	st := k.Frames.Stats()
	if d := st.Evictions - base.Evictions; d != 0 {
		return fmt.Errorf("unexpected evictions (%d) under a no-pressure configuration", d)
	}
	// The pin: pgs distinct pages went from stored to present, so
	// exactly pgs fault services may have run. One more means a
	// schedule slipped a second load of an already-serviced record
	// past the descriptor lock.
	if d := st.Faults - base.Faults; d != int64(pgs) {
		return fmt.Errorf("%d fault services for %d distinct pages: a completion raced a second faulter into a double load", d, pgs)
	}
	return audited(k)
}

// diskDecision reports a decision taken at the device queue's enqueue or
// completion yield point.
func diskDecision(d schedsim.Decision) bool {
	return d.Point == schedsim.PointDiskQueue || d.Point == schedsim.PointDisk
}

// TestSweepDiskCompletionWindow systematically deviates at the device
// queue's enqueue and completion decisions. Every completed schedule
// must read correct data with exactly one fault service per page —
// no double-loads — and the sweep must actually open disk-window
// decisions, or it verified nothing.
func TestSweepDiskCompletionWindow(t *testing.T) {
	var c tally
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window:         diskDecision,
	}, func(strat schedsim.Strategy) error {
		return c.note(diskSweepStorm(t, strat, 4), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous: no disk-queue or disk-completion decisions in %d schedules", rep.Schedules)
	}
	if c.completed == 0 {
		t.Fatal("every schedule was starved: the sweep verified nothing")
	}
	t.Logf("%d schedules (%d completed), %d in-window decisions, truncated=%v",
		rep.Schedules, c.completed, rep.WindowDecisions, rep.Truncated)
}

// TestSweepDiskWindowReplay is the determinism anchor for the disk
// yield points: the same seeded schedule over the disk storm takes the
// same decisions, step for step, both times.
func TestSweepDiskWindowReplay(t *testing.T) {
	run := func() []schedsim.Decision {
		rec := schedsim.Record(schedsim.Random(*schedSeed))
		if err := diskSweepStorm(t, rec, 4); err != nil && !starved(err) {
			t.Fatal(err)
		}
		return rec.Decisions()
	}
	d1 := run()
	sameSchedule(t, d1, run())
	if !slices.ContainsFunc(d1, diskDecision) {
		t.Error("no disk-queue or disk-completion decisions in the replayed schedule: the pipeline's yield points are not marked")
	}
}

// TestSimExecutorQuantumLoop runs the scheduler's quantum loop under
// both executors over the same machine shape and checks they agree on
// the work done; the deterministic one must also replay identically.
func TestSimExecutorQuantumLoop(t *testing.T) {
	run := func(ex uproc.Executor) (int, error) {
		k := boot(t, func(c *core.Config) { c.Processors = 2 })
		for i := 0; i < 4; i++ {
			if _, err := k.CreateProcess(fmt.Sprintf("q%d.x", i), aim.Bottom); err != nil {
				t.Fatal(err)
			}
		}
		var dispatched atomic.Int64
		total, err := k.Procs.RunQuantumWith(ex, k.CPUs, 10, func(cpu *hw.Processor, p *uproc.Process) {
			dispatched.Add(1)
		})
		if int64(total) != dispatched.Load() {
			t.Errorf("executor %s: %d quanta reported, %d bodies run", ex.Name(), total, dispatched.Load())
		}
		return total, err
	}
	goTotal, err := run(uproc.GoroutineExecutor{})
	if err != nil {
		t.Fatal(err)
	}
	simTotal, err := run(uproc.SimExecutor{Seed: *schedSeed})
	if err != nil {
		t.Fatal(err)
	}
	if goTotal != simTotal {
		t.Errorf("executors disagree on quanta: goroutines ran %d, schedsim ran %d", goTotal, simTotal)
	}
	again, err := run(uproc.SimExecutor{Seed: *schedSeed})
	if err != nil {
		t.Fatal(err)
	}
	if again != simTotal {
		t.Errorf("same seed, different quanta: %d then %d", simTotal, again)
	}
}

// dropSweepStorm races a cut — a truncation or a deletion — against
// demand faults on one freshly-deactivated file: one processor scans
// the file back in while the other cuts it, so the cut's DropPages can
// land between a fault's frame going in use and its descriptor going
// present. The scan stops once the cut has begun: a reference racing
// the cut of its own page is not under test, the in-flight fault is.
func dropSweepStorm(t *testing.T, strat schedsim.Strategy, pgs int, cut func(*core.Kernel, *workload.Worker) error) (inFlight int64, err error) {
	k := boot(t, func(c *core.Config) {
		c.Processors = 2
		c.MemFrames = 64
		c.WiredFrames = 8
		c.RootQuota = 4096
	})
	ws := sharedFile(t, k)
	w0 := ws[0]
	for pg := 0; pg < pgs; pg++ {
		if err := k.Write(w0.CPU, w0.Proc, w0.Segno, pg*hw.PageWords, hw.Word(100+pg)); err != nil {
			return 0, err
		}
	}
	e, err := w0.Proc.KST().Entry(w0.Segno)
	if err != nil {
		return 0, err
	}
	if err := k.Segs.Deactivate(e.UID); err != nil {
		return 0, err
	}
	// The token orders every access to cutting. inFlight counts the
	// reads the cut began under.
	cutting := false
	if err := workload.Run(uproc.SimExecutor{Strategy: strat}, ws, func(w *workload.Worker) error {
		if w != w0 {
			cutting = true
			return cut(k, w)
		}
		for pg := 0; pg < pgs && !cutting; pg++ {
			if _, err := k.Read(w.CPU, w.Proc, w.Segno, pg*hw.PageWords); err != nil {
				return err
			}
			if cutting {
				inFlight++
			}
		}
		return nil
	}); err != nil {
		return inFlight, err
	}
	return inFlight, audited(k)
}

// truncateAll and deleteFile are dropSweepStorm's two cuts.
func truncateAll(k *core.Kernel, w *workload.Worker) error {
	return k.Truncate(w.CPU, w.Proc, w.Segno, 0)
}

func deleteFile(k *core.Kernel, w *workload.Worker) error {
	return k.Delete(w.CPU, w.Proc, nil, "f")
}

// sweepDropPublishWindow sweeps preemptions at the ptw-present
// publication point, where a fault's frame is in use but its
// descriptor not yet present, under dropSweepStorm with the given cut.
func sweepDropPublishWindow(t *testing.T, cut func(*core.Kernel, *workload.Worker) error) {
	t.Helper()
	var c tally
	maxSched, maxPre := schedsim.EnvBudget(48, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointPublish && d.Detail == "ptw-present"
		},
	}, func(strat schedsim.Strategy) error {
		inFlight, err := dropSweepStorm(t, strat, 4, cut)
		return c.note(err, inFlight)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous: no ptw-present decisions in %d schedules", rep.Schedules)
	}
	if c.completedWithHit == 0 {
		t.Fatalf("no completed schedule began the cut under an in-flight fault (%d schedules): the window was not exercised", rep.Schedules)
	}
	t.Logf("%d schedules (%d completed, %d cutting under a fault), %d in-window decisions, truncated=%v",
		rep.Schedules, c.completed, c.completedWithHit, rep.WindowDecisions, rep.Truncated)
}

// TestSweepDropPageInPublishWindow: a truncation dropping a page in
// the publish window must leave every audit clean.
func TestSweepDropPageInPublishWindow(t *testing.T) {
	sweepDropPublishWindow(t, truncateAll)
}

// TestSweepDeleteInPublishWindow: so must a deletion, which drops every
// page of the segment and then discards its page table.
func TestSweepDeleteInPublishWindow(t *testing.T) {
	sweepDropPublishWindow(t, deleteFile)
}
