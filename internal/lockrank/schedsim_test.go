package lockrank

// Rank checking runs on the tasks of the deterministic executor, which
// carry their held locks: there a forbidden acquisition order panics,
// in every schedule a sweep can produce. Off a task a Mutex is a plain
// mutex, so the same acquisitions pass unchecked.

import (
	"strings"
	"testing"

	"multics/internal/schedsim"
)

// violate acquires t-bottom then t-top: an ascending acquisition the
// certification order forbids.
func violate() {
	var top, bot Mutex
	top.Init("t-top")
	bot.Init("t-bottom")
	bot.Lock()
	defer bot.Unlock()
	top.Lock()
	top.Unlock()
}

// TestViolationChecksOnlyOnTasks runs the same violation as a schedsim
// task, where it panics with the checker's full message, and on the
// test's own goroutine, where it passes.
func TestViolationChecksOnlyOnTasks(t *testing.T) {
	install(t)

	ex := schedsim.New(schedsim.Config{Name: "lockrank", Seed: 1})
	ex.Go("violator", violate)
	err := ex.Run()
	f, ok := err.(*schedsim.Failure)
	if !ok {
		t.Fatalf("got %T (%v), want the violation's *schedsim.Failure", err, err)
	}
	const want = "lockrank: acquiring t-top (rank 16) while holding t-bottom (rank 0): lock acquisition must descend the certification order"
	if f.Panic != want {
		t.Errorf("task panic = %v, want %q", f.Panic, want)
	}
	if !strings.Contains(f.Error(), "-sched-seed=") {
		t.Errorf("failure does not name the reproducing seed: %v", f)
	}

	violate() // off a task: a plain mutex, no panic
}

// TestSweepViolationFiresInEverySchedule sweeps the interleavings of a
// violating task against a well-behaved one: no schedule may let the
// ascending acquisition slip through unreported.
func TestSweepViolationFiresInEverySchedule(t *testing.T) {
	install(t)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   32,
		MaxPreemptions: 2,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointLock
		},
	}, func(strat schedsim.Strategy) error {
		ex := schedsim.New(schedsim.Config{Name: "lockrank-sweep", Strategy: strat})
		ex.Go("legal", func() {
			var top, bot Mutex
			top.Init("t-top")
			bot.Init("t-bottom")
			for i := 0; i < 4; i++ {
				top.Lock()
				bot.Lock()
				bot.Unlock()
				top.Unlock()
			}
		})
		ex.Go("violator", violate)
		err := ex.Run()
		if err == nil {
			return errorString("schedule completed without the violation panicking")
		}
		f, ok := err.(*schedsim.Failure)
		if !ok || f.Task != "violator" || f.Panic == nil {
			return err
		}
		if msg, ok := f.Panic.(string); !ok || !strings.Contains(msg, "must descend the certification order") {
			return err
		}
		return nil // the expected panic, in this schedule too
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedules < 2 {
		t.Fatalf("sweep explored only %d schedule(s): no interleavings were actually checked", rep.Schedules)
	}
	if rep.WindowDecisions == 0 {
		t.Fatal("sweep vacuous: no lock-acquire decisions were eligible for deviation")
	}
	// The sweep reads each schedule's decisions from the strategy it
	// hands out, not from the executor; the shape of the explored tree
	// pins that the two logs agree.
	if rep.Schedules != 17 || rep.WindowDecisions != 45 {
		t.Errorf("sweep explored %d schedules over %d lock decisions, want 17 over 45", rep.Schedules, rep.WindowDecisions)
	}
	t.Logf("%d schedules, %d lock decisions, truncated=%v", rep.Schedules, rep.WindowDecisions, rep.Truncated)
}

type errorString string

func (e errorString) Error() string { return string(e) }
