package core_test

// Whole-kernel tests under the deterministic virtual-time executor:
// bounded systematic sweeps that pin the races earlier changes fixed —
// the zero-reclaim lost-write window, the clean-eviction window, the
// quota-growth trap-vs-reclaim window and the disk pipeline's
// completion window — by deliberately
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
	"multics/internal/pageframe"
	"multics/internal/schedsim"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// schedSeed seeds the random schedules below. A failing schedule
// prints its seed; rerun with -sched-seed=<seed> to replay it exactly.
var schedSeed = flag.Int64("sched-seed", 1977, "seed for deterministic schedule simulation; a failure prints the seed that reproduces it")

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
	touchers, err := workload.NewWorkers(k, uproc.SimExecutor{}, 1, workload.Files{Prefix: "sw", Pages: pgs})
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

// cleanSweepStorm is the harness of the clean-eviction window. One
// process runs on both processors. The toucher, on the first, has read
// pages of its file f back in from their records, so each is clean and
// its translation cached in the toucher's associative memory; then it
// stores to each page through that translation and moves on. The
// evictor, on the second, writes pressure pages of another file, so
// its faults evict the toucher's pages. The evictor's task comes first,
// so the sticky baseline runs those evictions before the toucher
// starts, and a deviation at an eviction's shootdown drops the
// toucher's store between the not-present update and the broadcast's
// return. It returns how many stores landed there.
func cleanSweepStorm(t *testing.T, strat schedsim.Strategy, pgs int) (inWindow int64, err error) {
	k := boot(t, func(c *core.Config) {
		c.Processors = 2
		c.MemFrames = 32
		c.WiredFrames = 8
		c.RootQuota = 4096
	})
	ws := sharedFile(t, k)
	toucher, evictor := ws[0], ws[1]
	for pg := 0; pg < pgs; pg++ {
		if err := k.Write(toucher.CPU, toucher.Proc, toucher.Segno, pg*hw.PageWords, hw.Word(100+pg)); err != nil {
			return 0, err
		}
	}
	if _, err := k.CreateFile(evictor.CPU, evictor.Proc, nil, "big", nil, aim.Bottom); err != nil {
		return 0, err
	}
	big, err := k.OpenPath(evictor.CPU, evictor.Proc, []string{"big"})
	if err != nil {
		return 0, err
	}
	e, err := toucher.Proc.KST().Entry(toucher.Segno)
	if err != nil {
		return 0, err
	}
	if err := k.Segs.Deactivate(e.UID); err != nil {
		return 0, err
	}
	if err := workload.Scan(k, toucher, pgs, 100); err != nil {
		return 0, err
	}
	a, err := k.Segs.Lookup(e.UID)
	if err != nil {
		return 0, err
	}
	pt := a.PageTable()
	var hit []int
	err = workload.Run(uproc.SimExecutor{Strategy: strat}, []*workload.Worker{evictor, toucher}, func(w *workload.Worker) error {
		if w == evictor {
			for pg := 0; pg < pressure; pg++ {
				if err := k.Write(w.CPU, w.Proc, big, pg*hw.PageWords, hw.Word(1000+pg)); err != nil {
					return fmt.Errorf("evictor write page %d: %w", pg, err)
				}
			}
			return nil
		}
		for pg := 0; pg < pgs; pg++ {
			// A store that finds the page not present and yet
			// completes without a fault went through the cached
			// translation: its page is being evicted, and the broadcast
			// has not reached this processor.
			d, err := pt.Get(pg)
			if err != nil {
				return err
			}
			faults := k.Frames.Stats().Faults
			if err := k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords, hw.Word(10+pg)); err != nil {
				return fmt.Errorf("toucher write page %d: %w", pg, err)
			}
			if !d.Present && k.Frames.Stats().Faults == faults {
				hit = append(hit, pg)
			}
		}
		return nil
	})
	inWindow = int64(len(hit))
	if err != nil {
		return inWindow, err
	}
	// A page stored to in the window left memory with that eviction;
	// only its write-back can bring the store back.
	for _, pg := range hit {
		if d, err := pt.Get(pg); err != nil || d.Present {
			return inWindow, fmt.Errorf("page %d stored to in the window is resident again (%v)", pg, err)
		}
	}
	// Re-fault every page from its record and read the stores back.
	if err := k.Segs.Deactivate(e.UID); err != nil {
		return inWindow, err
	}
	if err := workload.Scan(k, toucher, pgs, 10); err != nil {
		return inWindow, fmt.Errorf("after re-fault (stores in the window on pages %v): %w", hit, err)
	}
	return inWindow, audited(k)
}

// TestSweepCleanEvictionWindow pins the window in which a clean page's
// eviction decides whether to write it back. The modified bit may be
// read only once the shootdown broadcast has returned: until then a
// store through a cached translation still completes against the old
// frame and sets the bit. Every completed schedule must read each
// store back after a re-fault with a clean audit, and some completed
// schedule must land a store in the window, or the race was not
// exercised.
func TestSweepCleanEvictionWindow(t *testing.T) {
	var c tally
	maxSched, maxPre := schedsim.EnvBudget(48, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointShootdown && d.Detail == pageframe.ModuleName
		},
	}, func(strat schedsim.Strategy) error {
		inWindow, err := cleanSweepStorm(t, strat, 3)
		return c.note(err, inWindow)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous: no page-frame-manager shootdown decisions in %d schedules", rep.Schedules)
	}
	if c.completed == 0 {
		t.Fatal("every schedule was starved: the sweep verified nothing")
	}
	if c.completedWithHit == 0 {
		t.Fatalf("no completed schedule landed a store in the clean-eviction window (%d schedules, %d in-window decisions): the race was not exercised",
			rep.Schedules, rep.WindowDecisions)
	}
	t.Logf("%d schedules (%d completed, %d with a store in the window), %d in-window decisions, %d stores in the window, truncated=%v",
		rep.Schedules, c.completed, c.completedWithHit, rep.WindowDecisions, c.hits, rep.Truncated)
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
	run := func() []schedsim.Recorded {
		rec := schedsim.Record(schedsim.Random(*schedSeed))
		if err := diskSweepStorm(t, rec, 4); err != nil && !starved(err) {
			t.Fatal(err)
		}
		return rec.Decisions()
	}
	d1, d2 := run(), run()
	if !slices.EqualFunc(d1, d2, func(a, b schedsim.Recorded) bool { return a.String() == b.String() }) {
		t.Fatalf("the same seed took different schedules: %d vs %d decisions", len(d1), len(d2))
	}
	if !slices.ContainsFunc(d1, func(d schedsim.Recorded) bool { return diskDecision(d.Decision) }) {
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

// inFlightWord is what page 0 of sweepInFlightWriteBack's file holds
// when the storm starts; the page's record holds nothing yet.
const inFlightWord = 4242

// sweepInFlightWriteBack races use, which the owner of a file runs on
// it, against the eviction write-back of the file's page 0. One
// process runs on both processors. The owner, on the first, writes
// pressure pages of another file, big, so one of its faults evicts
// page 0 and hands the write-back to the page-writer; then it runs
// use. The flusher, on the second, drains the page-writer's queue and
// performs what it took off, as every fault service does at its end,
// on whichever processor it runs. The owner's task
// comes first, so the sticky baseline finishes it before the flusher
// starts. The sweep deviates where the owner's faults publish their
// new pages (after an eviction, before the owner drains the
// page-writer) and where the flusher's write joins the disk queue,
// which reaches the schedule where the owner goes on while the
// write-back is off the queue but not yet on the disk. Every schedule
// must read back what was written, and in some the owner must wait
// the write-back out, or the window never opened. With evicting set,
// the flusher first writes pressure pages of a file of its own, so its
// faults evict too while the owner runs use.
func sweepInFlightWriteBack(t *testing.T, evicting bool, use func(k *core.Kernel, w *workload.Worker, big int) error) {
	t.Helper()
	waits := 0
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Task == "cpu0" && d.Point == schedsim.PointPublish && d.Detail == "ptw-new-page" ||
				d.Task == "cpu1" && d.Point == schedsim.PointDiskQueue
		},
	}, func(strat schedsim.Strategy) error {
		k := boot(t, func(c *core.Config) {
			c.MemFrames = 32
			c.WiredFrames = 8
			c.RootQuota = 4096
		})
		ws := sharedFile(t, k)
		owner := ws[0]
		if err := k.Write(owner.CPU, owner.Proc, owner.Segno, 0, inFlightWord); err != nil {
			return err
		}
		if _, err := k.CreateFile(owner.CPU, owner.Proc, nil, "big", nil, aim.Bottom); err != nil {
			return err
		}
		big, err := k.OpenPath(owner.CPU, owner.Proc, []string{"big"})
		if err != nil {
			return err
		}
		var h int
		if evicting {
			if _, err := k.CreateFile(owner.CPU, owner.Proc, nil, "h", nil, aim.Bottom); err != nil {
				return err
			}
			if h, err = k.OpenPath(owner.CPU, owner.Proc, []string{"h"}); err != nil {
				return err
			}
		}
		rec := schedsim.Record(strat)
		err = workload.Run(uproc.SimExecutor{Strategy: rec}, ws, func(w *workload.Worker) error {
			if w != owner {
				for pg := 0; evicting && pg < pressure; pg++ {
					if err := k.Write(w.CPU, w.Proc, h, pg*hw.PageWords, hw.Word(2000+pg)); err != nil {
						return fmt.Errorf("flusher page %d: %w", pg, err)
					}
				}
				k.VProcs.RunPending()
				return nil
			}
			for pg := 0; pg < pressure; pg++ {
				if err := k.Write(w.CPU, w.Proc, big, pg*hw.PageWords, hw.Word(1000+pg)); err != nil {
					return fmt.Errorf("pressure page %d: %w", pg, err)
				}
			}
			return use(k, w, big)
		})
		for _, d := range rec.Decisions() {
			if d.Task == "cpu0" && d.Point == schedsim.PointBlock && d.Detail == "write-back in flight" {
				waits++
			}
		}
		if err != nil {
			return err
		}
		return audited(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 || waits == 0 {
		t.Fatalf("sweep vacuous: %d schedules, %d in-window decisions, %d waits for an in-flight write-back", rep.Schedules, rep.WindowDecisions, waits)
	}
	t.Logf("%d schedules, %d in-window decisions, %d waits for an in-flight write-back, truncated=%v",
		rep.Schedules, rep.WindowDecisions, waits, rep.Truncated)
}

// pressure is how many pages it takes to evict the first of them: the
// pageable frames of sweepInFlightWriteBack's machine.
const pressure = 24

// refill writes 1000+pg into each page pg of segno from from up to to,
// as the owner's pressure wrote big's first pages, and then reads back
// every page below to. The first page refill adds takes the record
// freed last, and the pages after it evict it to that record: a
// write-back still in flight when the record was freed lands on it
// late, and the page reads the old word back.
func refill(k *core.Kernel, w *workload.Worker, segno, from, to int) error {
	for pg := from; pg < to; pg++ {
		if err := k.Write(w.CPU, w.Proc, segno, pg*hw.PageWords, hw.Word(1000+pg)); err != nil {
			return fmt.Errorf("page %d: write: %w", pg, err)
		}
	}
	return workload.Scan(k, &workload.Worker{CPU: w.CPU, Proc: w.Proc, Segno: segno}, to, 1000)
}

// TestSweepFaultAwaitsWriteBack: a fault on a page whose eviction
// write-back has not landed waits for it, rather than read the
// record's previous contents.
func TestSweepFaultAwaitsWriteBack(t *testing.T) {
	sweepInFlightWriteBack(t, false, func(k *core.Kernel, w *workload.Worker, _ int) error {
		return workload.Scan(k, w, 1, inFlightWord)
	})
}

// TestSweepTruncateAwaitsWriteBack: a truncation frees a record only
// once the write-back to it has landed, or the record's next owner
// reads the late write.
func TestSweepTruncateAwaitsWriteBack(t *testing.T) {
	sweepInFlightWriteBack(t, false, func(k *core.Kernel, w *workload.Worker, _ int) error {
		if err := k.Truncate(w.CPU, w.Proc, w.Segno, 0); err != nil {
			return err
		}
		return refill(k, w, w.Segno, 0, pressure)
	})
}

// TestSweepDeleteAwaitsWriteBack: so does a deletion; big's next page
// takes the freed record. The flusher evicts as well, so the deletion
// may also meet another processor's eviction of f's page, which it
// waits out (TestSweepDeleteAwaitsEviction).
func TestSweepDeleteAwaitsWriteBack(t *testing.T) {
	sweepInFlightWriteBack(t, true, func(k *core.Kernel, w *workload.Worker, big int) error {
		if err := k.Delete(w.CPU, w.Proc, nil, "f"); err != nil {
			return err
		}
		return refill(k, w, big, pressure, 2*pressure)
	})
}

// evictPages is how many pages sweepDeleteUnderEviction's evictor
// writes: more than the machine's 24 pageable frames, so its faults
// evict the owner's page.
const evictPages = 40

// sweepDeleteUnderEviction races the deletion of a file against
// another processor's eviction of the file's page. Two processes run
// on two processors. The owner, on the first, has written one page of
// its file f and deletes f; then, when reuse is set, it creates a file
// g, which takes f's freed AST slot and page table, and writes and
// reads back its first pages. The evictor, on the second, writes
// evictPages pages of its own file in 24 pageable frames, so its
// faults take f's page as a victim. The sweep deviates at the disk
// queue, which reaches the schedule where the owner's deletion runs
// between the evictor's choice of f's page and the evictor's report of
// it. Every schedule must complete with clean audits, and in some the
// deletion must wait for the eviction, or the window never opened.
func sweepDeleteUnderEviction(t *testing.T, reuse bool) {
	t.Helper()
	waits := 0
	maxSched, maxPre := schedsim.EnvBudget(48, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointDiskQueue
		},
	}, func(strat schedsim.Strategy) error {
		k := boot(t, func(c *core.Config) {
			c.Processors = 2
			c.MemFrames = 32
			c.WiredFrames = 8
			c.RootQuota = 4096
		})
		ws, err := workload.NewWorkers(k, uproc.SimExecutor{}, 2, workload.Files{Prefix: "dr"})
		if err != nil {
			return err
		}
		owner, evictor := ws[0], ws[1]
		if err := k.Write(owner.CPU, owner.Proc, owner.Segno, 0, inFlightWord); err != nil {
			return err
		}
		fPT, err := pageTable(k, owner, owner.Segno)
		if err != nil {
			return err
		}
		// The evictor's task comes first, so the sticky baseline runs it
		// to completion while the owner sits parked, runnable, at its
		// start: each of the evictor's disk-queue decisions then has
		// the deletion as its alternative.
		rec := schedsim.Record(strat)
		err = workload.Run(uproc.SimExecutor{Strategy: rec}, []*workload.Worker{evictor, owner}, func(w *workload.Worker) error {
			if w == evictor {
				for pg := 0; pg < evictPages; pg++ {
					if err := k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords, hw.Word(1000+pg)); err != nil {
						return fmt.Errorf("evictor write page %d: %w", pg, err)
					}
				}
				return nil
			}
			if err := k.Delete(w.CPU, w.Proc, nil, "dr0"); err != nil {
				return fmt.Errorf("delete: %w", err)
			}
			if !reuse {
				return nil
			}
			if _, err := k.CreateFile(w.CPU, w.Proc, nil, "g", nil, aim.Bottom); err != nil {
				return err
			}
			g, err := k.OpenPath(w.CPU, w.Proc, []string{"g"})
			if err != nil {
				return err
			}
			if err := refill(k, &workload.Worker{CPU: w.CPU, Proc: w.Proc, Segno: g}, g, 0, 4); err != nil {
				return err
			}
			if gPT, err := pageTable(k, w, g); err != nil || gPT != fPT {
				return fmt.Errorf("g did not take f's page table (%v): the slot was not reused", err)
			}
			return nil
		})
		for _, d := range rec.Decisions() {
			if d.Task == "cpu0" && d.Point == schedsim.PointBlock && d.Detail == "eviction in flight" {
				waits++
			}
		}
		if err != nil {
			return err
		}
		return audited(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 || waits == 0 {
		t.Fatalf("sweep vacuous: %d schedules, %d in-window decisions, %d waits for an in-flight eviction", rep.Schedules, rep.WindowDecisions, waits)
	}
	t.Logf("%d schedules, %d in-window decisions, %d waits for an in-flight eviction, truncated=%v",
		rep.Schedules, rep.WindowDecisions, waits, rep.Truncated)
}

// pageTable returns the page table of the active segment w's process
// knows as segno.
func pageTable(k *core.Kernel, w *workload.Worker, segno int) (*hw.PageTable, error) {
	e, err := w.Proc.KST().Entry(segno)
	if err != nil {
		return nil, err
	}
	a, err := k.Segs.Lookup(e.UID)
	if err != nil {
		return nil, err
	}
	return a.PageTable(), nil
}

// TestSweepDeleteAwaitsEviction: a deletion waits out another
// processor's eviction of the segment's page before the segment leaves
// the active segment table, so the eviction's report still finds it.
func TestSweepDeleteAwaitsEviction(t *testing.T) {
	sweepDeleteUnderEviction(t, false)
}

// TestSweepReusedSlotAwaitsEviction: the file created after the
// deletion takes the freed AST slot and its page table at once; the
// old eviction must not write that table, and every page the new file
// writes must read back.
func TestSweepReusedSlotAwaitsEviction(t *testing.T) {
	sweepDeleteUnderEviction(t, true)
}

// TestSweepDeleteAwaitsFaultService races a reference to a file
// against the file's deletion. One process runs on both processors,
// with f's page 0 written and then pushed out of memory by writing
// another file, so the reference faults and reads the page from disk.
// The first processor deletes f and creates g, which takes f's AST
// slot and page table once active, and writes and reads back g's
// first pages; the second reads page 0 of f. The sweep deviates at
// every decision of the reader and where the first publishes g's new
// pages, which reaches the schedules where the deletion meets the
// reference's fault service in flight: the deletion waits for it, or
// the service would publish f's page into the table g reuses. The
// reference must read f's word or fail (f is gone), every audit must
// stay clean, and in some schedules the reference must fail and the
// deletion wait, or the windows never opened.
func TestSweepDeleteAwaitsFaultService(t *testing.T) {
	failed, waits := 0, 0
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Task == "cpu1" || d.Point == schedsim.PointPublish && d.Detail == "ptw-new-page"
		},
	}, func(strat schedsim.Strategy) error {
		k := boot(t, func(c *core.Config) {
			c.MemFrames = 32
			c.WiredFrames = 8
			c.RootQuota = 4096
		})
		ws := sharedFile(t, k)
		owner := ws[0]
		if err := k.Write(owner.CPU, owner.Proc, owner.Segno, 0, inFlightWord); err != nil {
			return err
		}
		// Push f's page out of memory: f stays active, and the reference
		// takes a missing-page fault, served from disk.
		if _, err := k.CreateFile(owner.CPU, owner.Proc, nil, "big", nil, aim.Bottom); err != nil {
			return err
		}
		big, err := k.OpenPath(owner.CPU, owner.Proc, []string{"big"})
		if err != nil {
			return err
		}
		if err := refill(k, &workload.Worker{CPU: owner.CPU, Proc: owner.Proc, Segno: big}, big, 0, pressure); err != nil {
			return err
		}
		// The reader's task comes first, so the sticky baseline runs the
		// reference to completion while the deleter sits parked,
		// runnable, at its start.
		var readErr error
		rec := schedsim.Record(strat)
		err = workload.Run(uproc.SimExecutor{Strategy: rec}, []*workload.Worker{ws[1], owner}, func(w *workload.Worker) error {
			if w != owner {
				got, err := k.Read(w.CPU, w.Proc, w.Segno, 0)
				if err == nil && got != inFlightWord {
					return fmt.Errorf("read %d from f's page 0, want %d", got, inFlightWord)
				}
				readErr = err
				return nil
			}
			if err := k.Delete(w.CPU, w.Proc, nil, "f"); err != nil {
				return err
			}
			if _, err := k.CreateFile(w.CPU, w.Proc, nil, "g", nil, aim.Bottom); err != nil {
				return err
			}
			g, err := k.OpenPath(w.CPU, w.Proc, []string{"g"})
			if err != nil {
				return err
			}
			return refill(k, &workload.Worker{CPU: w.CPU, Proc: w.Proc, Segno: g}, g, 0, 2)
		})
		for _, d := range rec.Decisions() {
			if d.Task == "cpu0" && d.Point == schedsim.PointBlock && d.Detail == "segment service in progress" {
				waits++
			}
		}
		if err != nil {
			return err
		}
		if readErr != nil {
			failed++
		}
		return audited(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 || failed == 0 || waits == 0 {
		t.Fatalf("sweep vacuous: %d schedules, %d in-window decisions, %d references failed on the deleted file, %d deletions waited for a fault service", rep.Schedules, rep.WindowDecisions, failed, waits)
	}
	t.Logf("%d schedules, %d in-window decisions, %d references failed on the deleted file, %d deletions waited for a fault service, truncated=%v",
		rep.Schedules, rep.WindowDecisions, failed, waits, rep.Truncated)
}

// TestSweepDestroyRunningKeepsKST destroys a process while a processor
// runs it and logs a second user in at once. The running process
// writes its file fa, taking a missing-segment fault, then opens and
// writes ga, making it known; the destroyer, on the other processor,
// destroys it, creates the second process and has it create, open and
// write fb. However the schedule falls, the running process's KST and
// address space stay its own: the second process knows fb alone, and
// its descriptor table connects nothing but fb.
func TestSweepDestroyRunningKeepsKST(t *testing.T) {
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
	}, func(strat schedsim.Strategy) error {
		k := boot(t, func(c *core.Config) { c.Processors = 2 })
		a, err := k.CreateProcess("a.x", aim.Bottom)
		if err != nil {
			return err
		}
		if got, _, err := k.Procs.Dispatch(); err != nil || got != a {
			return fmt.Errorf("dispatch = %v, %v; want the first process", got, err)
		}
		d, err := k.CreateProcess("d.x", aim.Bottom)
		if err != nil {
			return err
		}
		cpu0, cpu1 := k.CPUs[0], k.CPUs[1]
		k.Attach(cpu0, a)
		k.Attach(cpu1, d)
		for _, name := range []string{"fa", "ga"} {
			if _, err := k.CreateFile(cpu0, a, nil, name, nil, aim.Bottom); err != nil {
				return err
			}
		}
		fa, err := k.OpenPath(cpu0, a, []string{"fa"})
		if err != nil {
			return err
		}
		var b *uproc.Process
		err = workload.Run(uproc.SimExecutor{Strategy: strat}, []*workload.Worker{{CPU: cpu0, Proc: a}, {CPU: cpu1, Proc: d}}, func(w *workload.Worker) error {
			if w.Proc == a {
				// The process is destroyed under these references:
				// they may fail.
				_ = k.Write(cpu0, a, fa, 0, 1)
				if ga, err := k.OpenPath(cpu0, a, []string{"ga"}); err == nil {
					_ = k.Write(cpu0, a, ga, 0, 1)
				}
				return nil
			}
			if err := k.Procs.Destroy(a); err != nil {
				return fmt.Errorf("destroy: %w", err)
			}
			if b, err = k.CreateProcess("b.x", aim.Bottom); err != nil {
				return err
			}
			k.Attach(cpu1, b)
			if _, err := k.CreateFile(cpu1, b, nil, "fb", nil, aim.Bottom); err != nil {
				return err
			}
			fb, err := k.OpenPath(cpu1, b, []string{"fb"})
			if err != nil {
				return err
			}
			return k.Write(cpu1, b, fb, 0, 2)
		})
		if err != nil {
			return err
		}
		fb, err := b.KST().Entry(k.Procs.KSTBase)
		if err != nil {
			return fmt.Errorf("second process does not know fb: %w", err)
		}
		if e, err := b.KST().Entry(k.Procs.KSTBase + 1); err == nil {
			return fmt.Errorf("second process knows segment %d at %d: the first process made it known in a KST it shares", e.UID, e.Segno)
		}
		fbPT, err := k.Segs.Lookup(fb.UID)
		if err != nil {
			return err
		}
		for segno := k.Procs.KSTBase; segno < b.DT().Len(); segno++ {
			sdw, err := b.DT().Get(segno)
			if err != nil {
				return err
			}
			if sdw.Present && (segno != fb.Segno || sdw.Table != fbPT.PageTable()) {
				return fmt.Errorf("second process's segment %d is connected to a table not fb's: the first process connected into a table it shares", segno)
			}
		}
		return audited(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d schedules, %d in-window decisions, truncated=%v", rep.Schedules, rep.WindowDecisions, rep.Truncated)
}

// TestSweepReferenceAwaitsDeactivation races references to a file
// against the file's deactivation. One process runs on both
// processors, with f's page 0 written and then pushed out of memory,
// as in TestSweepDeleteAwaitsFaultService. The first processor
// deactivates f; the second reads f's page 0, taking a missing-page
// fault, and then writes page 1, growing f. The sweep deviates at every
// decision of the second, which reaches the schedules where a fault
// service or a connection meets the deactivation begun: it waits the
// deactivation out, and the reference, faulting again, reactivates f.
// Both references must succeed in every schedule, the read returning
// f's word, every audit must stay clean, and in some schedules a
// service must wait for the deactivation, or the window never opened.
func TestSweepReferenceAwaitsDeactivation(t *testing.T) {
	waits := 0
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window:         func(d schedsim.Decision) bool { return d.Task == "cpu1" },
	}, func(strat schedsim.Strategy) error {
		k := boot(t, func(c *core.Config) {
			c.MemFrames = 32
			c.WiredFrames = 8
			c.RootQuota = 4096
		})
		ws := sharedFile(t, k)
		owner := ws[0]
		if err := k.Write(owner.CPU, owner.Proc, owner.Segno, 0, inFlightWord); err != nil {
			return err
		}
		if _, err := k.CreateFile(owner.CPU, owner.Proc, nil, "big", nil, aim.Bottom); err != nil {
			return err
		}
		big, err := k.OpenPath(owner.CPU, owner.Proc, []string{"big"})
		if err != nil {
			return err
		}
		if err := refill(k, &workload.Worker{CPU: owner.CPU, Proc: owner.Proc, Segno: big}, big, 0, pressure); err != nil {
			return err
		}
		f, err := owner.Proc.KST().Entry(owner.Segno)
		if err != nil {
			return err
		}
		// The reader's task comes first, so the sticky baseline runs
		// its references to completion while the deactivation sits
		// parked, runnable, at its start.
		rec := schedsim.Record(strat)
		err = workload.Run(uproc.SimExecutor{Strategy: rec}, []*workload.Worker{ws[1], owner}, func(w *workload.Worker) error {
			if w == owner {
				return k.Segs.Deactivate(f.UID)
			}
			got, err := k.Read(w.CPU, w.Proc, w.Segno, 0)
			if err != nil {
				return fmt.Errorf("read: %w", err)
			}
			if got != inFlightWord {
				return fmt.Errorf("read %d from f's page 0, want %d", got, inFlightWord)
			}
			if err := k.Write(w.CPU, w.Proc, w.Segno, hw.PageWords, 7); err != nil {
				return fmt.Errorf("write page 1: %w", err)
			}
			return nil
		})
		for _, d := range rec.Decisions() {
			if d.Task == "cpu1" && d.Point == schedsim.PointBlock && d.Detail == "segment deactivation in progress" {
				waits++
			}
		}
		if err != nil {
			return err
		}
		return audited(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 || waits == 0 {
		t.Fatalf("sweep vacuous: %d schedules, %d in-window decisions, %d services waited for the deactivation", rep.Schedules, rep.WindowDecisions, waits)
	}
	t.Logf("%d schedules, %d in-window decisions, %d services waited for the deactivation, truncated=%v",
		rep.Schedules, rep.WindowDecisions, waits, rep.Truncated)
}
