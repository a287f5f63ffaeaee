package schedsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// schedule runs tasks under the seed's random strategy and returns the
// decision log, as a Recorder kept it, rendered one decision per line.
func schedule(t *testing.T, seed int64, build func(ex *Executor)) (string, error) {
	t.Helper()
	rec := Record(Random(seed))
	ex := New(Config{Seed: seed, Strategy: rec})
	build(ex)
	err := ex.Run()
	var b strings.Builder
	for _, d := range rec.Decisions() {
		fmt.Fprintln(&b, d)
	}
	return b.String(), err
}

func chatter(n int) func() {
	return func() {
		for i := 0; i < n; i++ {
			Yield(PointYield, "")
		}
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	build := func(ex *Executor) {
		ex.Go("a", chatter(10))
		ex.Go("b", chatter(10))
		ex.Go("c", chatter(10))
	}
	s1, err1 := schedule(t, 42, build)
	s2, err2 := schedule(t, 42, build)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1 != s2 {
		t.Errorf("same seed produced different schedules:\n%s\nvs\n%s", s1, s2)
	}
	s3, err3 := schedule(t, 43, build)
	if err3 != nil {
		t.Fatal(err3)
	}
	if s1 == s3 {
		t.Error("seeds 42 and 43 produced identical schedules over 30 yields: strategy is not consuming the seed")
	}
}

// TestTokenSerializes proves that only one task runs at a time: an
// unsynchronized counter incremented across yield points stays exact.
// Run under -race this is also the proof that token hand-off carries
// the happens-before edges.
func TestTokenSerializes(t *testing.T) {
	counter := 0
	ex := New(Config{Seed: 7})
	for i := 0; i < 4; i++ {
		ex.Go(fmt.Sprintf("t%d", i), func() {
			for j := 0; j < 100; j++ {
				v := counter
				Yield(PointYield, "between read and write")
				counter = v + 1
			}
		})
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	// The yield sits inside the read-modify-write, so with real
	// concurrency updates would be lost; under the token none are...
	if counter == 400 {
		t.Fatal("no interleaving at all: every task ran to completion unpreempted under a random strategy")
	}
	// ...but interleaved read-modify-write pairs DO lose updates —
	// which is the point: the simulator reproduces racy semantics
	// deterministically. The exact count is a function of the seed.
	again := 0
	ex2 := New(Config{Seed: 7})
	for i := 0; i < 4; i++ {
		ex2.Go(fmt.Sprintf("t%d", i), func() {
			for j := 0; j < 100; j++ {
				v := again
				Yield(PointYield, "between read and write")
				again = v + 1
			}
		})
	}
	if err := ex2.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != again {
		t.Errorf("same seed, different lost-update count: %d vs %d", counter, again)
	}
}

func TestLockAcquireSerializesCriticalSections(t *testing.T) {
	var mu sync.Mutex
	counter := 0
	ex := New(Config{Seed: 3})
	for i := 0; i < 4; i++ {
		ex.Go(fmt.Sprintf("t%d", i), func() {
			for j := 0; j < 50; j++ {
				if !LockAcquire(&mu, "counter") {
					mu.Lock()
				}
				v := counter
				Yield(PointYield, "inside critical section")
				counter = v + 1
				mu.Unlock()
			}
		})
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 200 {
		t.Errorf("lost updates under LockAcquire: got %d, want 200", counter)
	}
}

func TestBlockWakesOnPredicate(t *testing.T) {
	turn := 0
	var order []int
	ex := New(Config{Seed: 1})
	for i := 0; i < 3; i++ {
		ex.Go(fmt.Sprintf("t%d", i), func() {
			Block(fmt.Sprintf("turn %d", i), func() bool { return turn == i })
			order = append(order, i)
			turn++
		})
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Errorf("blocked tasks woke out of turn: %v", order)
	}
}

func TestDeadlockDetected(t *testing.T) {
	ex := New(Config{Seed: 9, Name: "dl"})
	ex.Go("waiter", func() {
		Block("the bell that never rings", func() bool { return false })
	})
	ex.Go("bystander", chatter(3))
	err := ex.Run()
	var f *Failure
	if !errors.As(err, &f) || !f.Deadlock {
		t.Fatalf("want deadlock failure, got %v", err)
	}
	if !strings.Contains(f.Error(), "the bell that never rings") {
		t.Errorf("deadlock report does not name the block reason: %v", f)
	}
	if !strings.Contains(f.Error(), "-sched-seed=9") {
		t.Errorf("deadlock report does not carry the seed: %v", f)
	}
}

func TestPanicCapturedWithSeed(t *testing.T) {
	cleanExit := false
	ex := New(Config{Seed: 1977})
	ex.Go("victim", func() {
		Yield(PointYield, "")
		panic("invariant violated")
	})
	ex.Go("other", func() {
		// Long enough that the victim's panic is guaranteed to land
		// first under any strategy that ever schedules the victim.
		chatter(100000)()
		cleanExit = true
	})
	err := ex.Run()
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("want *Failure, got %v", err)
	}
	if f.Task != "victim" || fmt.Sprint(f.Panic) != "invariant violated" {
		t.Errorf("failure misattributed: %+v", f)
	}
	if !strings.Contains(f.Error(), "-sched-seed=1977") {
		t.Errorf("failure does not print the reproducing seed: %v", f)
	}
	if cleanExit {
		// The abort must unwind the surviving task, not run it to
		// completion against a half-failed schedule.
		t.Error("peer task ran to completion after the schedule aborted")
	}
}

func TestAbortReleasesBlockedTasks(t *testing.T) {
	ex := New(Config{Seed: 5})
	ex.Go("blocked", func() {
		Block("forever", func() bool { return false })
		t.Error("Block returned without its predicate becoming true")
	})
	ex.Go("bomb", func() {
		Yield(PointYield, "")
		panic("boom")
	})
	err := ex.Run()
	var f *Failure
	if !errors.As(err, &f) || f.Task != "bomb" {
		t.Fatalf("want bomb's panic, got %v", err)
	}
}

func TestHooksAreNoOpsOffTask(t *testing.T) {
	// No executor active: every hook must fall through.
	Yield(PointLock, "nobody home")
	Block("nobody home", func() bool { t.Error("predicate evaluated"); return false })
	var mu sync.Mutex
	if LockAcquire(&mu, "x") {
		t.Error("LockAcquire claimed to acquire outside a task")
	}
	if OnTask() {
		t.Error("OnTask true outside a task")
	}
}

// TestSweepFindsLostUpdate is the canonical model-checking exercise:
// two tasks perform an unprotected read-modify-write with a yield in
// the window. The baseline (sticky) schedule never preempts and the
// counter is exact; the sweep must discover the interleaving that
// loses an update.
func TestSweepFindsLostUpdate(t *testing.T) {
	lost := 0
	rep, err := Sweep(SweepConfig{
		MaxSchedules:   32,
		MaxPreemptions: 2,
		Window:         func(d Decision) bool { return d.Point == PointMark },
	}, func(s Strategy) error {
		counter := 0
		ex := New(Config{Strategy: s})
		for i := 0; i < 2; i++ {
			ex.Go(fmt.Sprintf("t%d", i), func() {
				v := counter
				Yield(PointMark, "rmw-window")
				counter = v + 1
			})
		}
		if err := ex.Run(); err != nil {
			return err
		}
		if counter != 2 {
			lost++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatal("window never opened: sweep was vacuous")
	}
	if lost == 0 {
		t.Errorf("sweep of %d schedules never produced the lost update", rep.Schedules)
	}
	if rep.Truncated {
		t.Errorf("tiny state space should not truncate: %+v", rep)
	}
}

// TestSweepReplayIsExact: re-running a deviation prefix must replay
// the same schedule decisions up to the deviation point, as the
// Recorders a sweep reads them from log them.
func TestSweepReplayIsExact(t *testing.T) {
	build := func(s Strategy) *Executor {
		ex := New(Config{Strategy: s})
		ex.Go("a", chatter(5))
		ex.Go("b", chatter(5))
		return ex
	}
	rec := Record(Replay(nil, Sticky()))
	if err := build(rec).Run(); err != nil {
		t.Fatal(err)
	}
	ds := rec.Decisions()
	if len(ds) < 4 {
		t.Fatalf("baseline too short: %d decisions", len(ds))
	}
	// Replay the first three baseline choices and check they match.
	prefix := []int{ds[0].Chosen, ds[1].Chosen, ds[2].Chosen}
	re := Record(Replay(prefix, Sticky()))
	if err := build(re).Run(); err != nil {
		t.Fatal(err)
	}
	if len(re.Decisions()) != len(ds) {
		t.Fatalf("replay took %d decisions, baseline %d", len(re.Decisions()), len(ds))
	}
	for i := range ds {
		got, want := re.Decisions()[i], ds[i]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("replay diverged at step %d: got %v, want %v", i, got, want)
		}
	}
}

// TestRecorderCopiesRunnable: the executor hands each decision's
// runnable set over in scratch space it reuses, so the Recorder must
// keep copies. Three tasks of different lengths under RoundRobin make
// the set shrink from three names to two to one; every logged set must
// still read as it was when the decision was taken.
func TestRecorderCopiesRunnable(t *testing.T) {
	rec := Record(RoundRobin())
	ex := New(Config{Strategy: rec})
	ex.Go("a", chatter(1))
	ex.Go("b", chatter(3))
	ex.Go("c", chatter(5))
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range rec.Decisions() {
		got = append(got, fmt.Sprint(d.Runnable))
	}
	// The last task's finish leaves nobody to choose, so it takes no
	// decision.
	want := []string{
		"[a b c]",                       // start
		"[a b c]", "[a b c]", "[a b c]", // a, b, c yield
		"[b c]",                            // a finishes
		"[b c]", "[b c]", "[b c]", "[b c]", // b, c, b, c yield
		"[c]",        // b finishes
		"[c]", "[c]", // c's last two yields
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("logged runnable sets\n got %v\nwant %v", got, want)
	}
}

// TestYieldAllocatesNothing pins the executor's decision path: once
// warm, a yield under a running executor builds its decision in
// reused scratch space and logs nothing.
func TestYieldAllocatesNothing(t *testing.T) {
	const yields = 10000
	var before, after runtime.MemStats
	ex := New(Config{Seed: 1})
	ex.Go("a", func() {
		chatter(100)() // warm the scratch space
		runtime.ReadMemStats(&before)
		chatter(yields)()
		runtime.ReadMemStats(&after)
	})
	ex.Go("b", chatter(yields+100))
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if n := after.Mallocs - before.Mallocs; n >= 100 {
		t.Errorf("%d yields allocated %d objects, want fewer than 100", yields, n)
	}
}

// TestWarmRunAllocatesNothing pins the engine's reuse: once a run as
// wide has gone before, New, two Gos and Run allocate nothing. The run
// settings, the task records, the carriers and choose's scratch all
// come back from the run before, and the Executor handle stays on the
// caller's stack.
func TestWarmRunAllocatesNothing(t *testing.T) {
	a, b := chatter(10), chatter(10)
	run := func() {
		ex := New(Config{Strategy: RoundRobin()})
		ex.Go("a", a)
		ex.Go("b", b)
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("a warm run allocated %v objects, want 0", n)
	}
}

// blockCounter counts the PointBlock decisions of its inner strategy.
type blockCounter struct {
	inner  Strategy
	blocks int
}

func (c *blockCounter) Choose(d Decision) int {
	if d.Point == PointBlock {
		c.blocks++
	}
	return c.inner.Choose(d)
}

// TestContendedLockAcquireAllocatesNothing: a task that finds its lock
// held parks on the mutex itself, so a contended acquisition allocates
// nothing. Under RoundRobin two tasks that each yield while holding
// the lock find it held at every acquisition but the first.
func TestContendedLockAcquireAllocatesNothing(t *testing.T) {
	const acquisitions = 1000
	var mu sync.Mutex
	locker := func() {
		for i := 0; i < acquisitions; i++ {
			LockAcquire(&mu, "contended")
			Yield(PointYield, "holding")
			mu.Unlock()
		}
	}
	run := func() int {
		st := &blockCounter{inner: RoundRobin()}
		ex := New(Config{Strategy: st})
		ex.Go("a", locker)
		ex.Go("b", locker)
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		return st.blocks
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	contended := run()
	runtime.ReadMemStats(&after)
	if contended < acquisitions {
		t.Fatalf("%d of %d acquisitions contended, want at least %d", contended, 2*acquisitions, acquisitions)
	}
	if per := (after.Mallocs - before.Mallocs) / uint64(contended); per != 0 {
		t.Errorf("a contended acquisition allocated %d objects, want 0", per)
	}
}

// TestScheduleDigest pins whole schedules: four tasks that block on a
// predicate and wake, contend for a lock, yield and finish at
// different steps, under four seeds. The digest covers every decision
// as a Recorder logs it (step, point and detail, yielder, runnable set
// and choice), so any change to which tasks are runnable at a
// decision, to the order they are listed in, or to what a decision
// reports changes it.
func TestScheduleDigest(t *testing.T) {
	const want = "c962e9393fc38eb6"
	h := fnv.New64a()
	var points [numPoints]int
	lockBlocks := 0
	for seed := int64(1); seed <= 4; seed++ {
		var mu sync.Mutex
		held := 0
		rec := Record(Random(seed))
		ex := New(Config{Seed: seed, Strategy: rec})
		for i := 0; i < 2; i++ {
			ex.Go(fmt.Sprintf("locker%d", i), func() {
				for j := 0; j < 4+2*i; j++ {
					LockAcquire(&mu, "golden")
					Yield(PointMark, "held")
					held++
					mu.Unlock()
				}
			})
		}
		ex.Go("waiter", func() {
			Block("three held", func() bool { return held >= 3 })
			chatter(3)()
		})
		ex.Go("short", chatter(2))
		if err := ex.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range rec.Decisions() {
			fmt.Fprintln(h, d)
			points[d.Point]++
			if d.Point == PointBlock && d.Detail == "lock golden" {
				lockBlocks++
			}
		}
	}
	if lockBlocks == 0 || points[PointBlock] == lockBlocks || points[PointDone] == 0 {
		t.Fatalf("want contended locks, a blocked waiter and finishing tasks; decisions by point %v, %d on the lock", points, lockBlocks)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("schedule digest %s, want %s", got, want)
	}
}

// TestPanickedCarrierIsReplaced: a carrier whose task ended in a
// panic is not reused, since a panic may have left its goroutine in
// any state; the next run starts a new carrier in its slot and keeps
// the carrier of a task that ended normally.
func TestPanickedCarrierIsReplaced(t *testing.T) {
	ex := New(Config{Strategy: Sticky()})
	ex.Go("victim", func() { panic("boom") })
	ex.Go("bystander", chatter(3))
	var f *Failure
	if err := ex.Run(); !errors.As(err, &f) || f.Task != "victim" {
		t.Fatalf("want victim's panic, got %v", err)
	}
	// Sticky starts the victim; its panic aborts the run before the
	// bystander's body runs, so only the victim's carrier unwound.
	if carriers[0] != nil {
		t.Error("the panicked task's carrier is still in its slot")
	}
	kept := carriers[1]
	if kept == nil {
		t.Fatal("the bystander's carrier was dropped")
	}
	ran := 0
	ex = New(Config{Strategy: RoundRobin()})
	ex.Go("a", func() { ran++ })
	ex.Go("b", func() { ran++ })
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Errorf("%d of 2 tasks ran after the failed run", ran)
	}
	if carriers[0] == nil || carriers[1] != kept {
		t.Errorf("carriers after the next run: slot 0 %p, slot 1 %p (kept %p)", carriers[0], carriers[1], kept)
	}
}

// TestGoexitFailsTheRun: a task that calls runtime.Goexit (as t.Fatal
// inside a task does) neither returns nor panics. Run must still
// return, with a Failure naming the task, rather than wait forever for
// the token, and the next executor must run cleanly with a new carrier
// in the exited task's slot.
func TestGoexitFailsTheRun(t *testing.T) {
	ex := New(Config{Strategy: RoundRobin()})
	ex.Go("quitter", func() {
		Yield(PointYield, "")
		runtime.Goexit()
	})
	ex.Go("bystander", chatter(3))
	res := make(chan error, 1)
	go func() { res <- ex.Run() }()
	select {
	case err := <-res:
		var f *Failure
		if !errors.As(err, &f) || f.Task != "quitter" {
			t.Fatalf("want the quitter's failure, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a task called runtime.Goexit")
	}
	if carriers[0] != nil {
		t.Error("the exited task's carrier is still in its slot")
	}
	ran := 0
	ex = New(Config{Strategy: RoundRobin()})
	ex.Go("a", func() { ran++ })
	ex.Go("b", func() { ran++ })
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Errorf("%d of 2 tasks ran after the failed run", ran)
	}
}

// TestExecutorsBuiltConcurrently: goroutines may build executors at
// once, though only one runs at a time. Each New takes the spare
// engine or a fresh one, so executors that exist together share no
// task records: every builder here builds before any runs, then the
// runs, serialized by a mutex, must each run their own two tasks once.
// Run under -race, it also checks the engine's hand-over between
// goroutines.
func TestExecutorsBuiltConcurrently(t *testing.T) {
	const builders, rounds = 4, 25
	for r := 0; r < rounds; r++ {
		var runMu sync.Mutex
		var built, finished sync.WaitGroup
		built.Add(builders)
		finished.Add(builders)
		for b := 0; b < builders; b++ {
			go func() {
				defer finished.Done()
				ran := [2]int{}
				ex := New(Config{Seed: int64(r)})
				ex.Go("a", func() { ran[0]++; Yield(PointYield, "") })
				ex.Go("b", func() { ran[1]++; Yield(PointYield, "") })
				built.Done()
				built.Wait()
				runMu.Lock()
				err := ex.Run()
				runMu.Unlock()
				if err != nil || ran != [2]int{1, 1} {
					t.Errorf("round %d builder %d: tasks ran %v times, err %v", r, b, ran, err)
				}
			}()
		}
		finished.Wait()
	}
}

func TestMaxStepsBackstop(t *testing.T) {
	ex := New(Config{Seed: 2, MaxSteps: 100})
	ex.Go("spinner", func() {
		for {
			Yield(PointYield, "")
		}
	})
	err := ex.Run()
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("want runaway failure, got %v", err)
	}
	if !strings.Contains(fmt.Sprint(f.Panic), "exceeded 100 steps") {
		t.Errorf("unexpected failure: %v", f)
	}
}
