package schedsim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
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
