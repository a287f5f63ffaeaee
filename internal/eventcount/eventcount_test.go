package eventcount

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"multics/internal/schedsim"
)

func TestReadAdvance(t *testing.T) {
	var e Eventcount
	if e.Read() != 0 {
		t.Fatalf("zero value reads %d", e.Read())
	}
	if got := e.Advance(); got != 1 {
		t.Fatalf("first Advance = %d", got)
	}
	if got := e.Advance(); got != 2 {
		t.Fatalf("second Advance = %d", got)
	}
	if e.Read() != 2 {
		t.Fatalf("Read = %d, want 2", e.Read())
	}
}

func TestAwaitAlreadyReached(t *testing.T) {
	var e Eventcount
	e.Advance()
	e.Advance()
	if got := e.Await(1); got != 2 {
		t.Errorf("Await(1) = %d, want 2", got)
	}
	if got := e.Await(0); got != 2 {
		t.Errorf("Await(0) = %d, want 2", got)
	}
}

func TestAwaitBlocksUntilAdvance(t *testing.T) {
	var e Eventcount
	done := make(chan uint64, 1)
	go func() { done <- e.Await(3) }()
	select {
	case v := <-done:
		t.Fatalf("Await(3) returned %d before any Advance", v)
	case <-time.After(10 * time.Millisecond):
	}
	e.Advance()
	e.Advance()
	select {
	case v := <-done:
		t.Fatalf("Await(3) returned %d at count 2", v)
	case <-time.After(10 * time.Millisecond):
	}
	e.Advance()
	select {
	case v := <-done:
		if v < 3 {
			t.Errorf("Await(3) = %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Await(3) still blocked after count reached 3")
	}
}

func TestAdvanceWakesAllWaiters(t *testing.T) {
	var e Eventcount
	const n = 8
	var wg sync.WaitGroup
	results := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Await(1)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	e.Advance()
	wg.Wait()
	for i, v := range results {
		if v < 1 {
			t.Errorf("waiter %d observed %d", i, v)
		}
	}
}

func TestAwaiterNeedNotBeKnownToAdvancer(t *testing.T) {
	// The paper's requirement: the discoverer of an event has no
	// knowledge of the identities of waiting processes. Advance on
	// an eventcount with no waiters must not block or fail, and a
	// late waiter still sees the count.
	var e Eventcount
	e.Advance()
	if got := e.Await(1); got != 1 {
		t.Errorf("late Await(1) = %d", got)
	}
}

func TestTryAwait(t *testing.T) {
	var e Eventcount
	if v, ok := e.TryAwait(1); ok || v != 0 {
		t.Errorf("TryAwait(1) on zero = %d,%v", v, ok)
	}
	e.Advance()
	if v, ok := e.TryAwait(1); !ok || v != 1 {
		t.Errorf("TryAwait(1) after advance = %d,%v", v, ok)
	}
}

func TestSequencerTotalOrder(t *testing.T) {
	var s Sequencer
	const n = 100
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tkt := s.Ticket()
			mu.Lock()
			defer mu.Unlock()
			if seen[tkt] {
				t.Errorf("duplicate ticket %d", tkt)
			}
			seen[tkt] = true
		}()
	}
	wg.Wait()
	for i := uint64(1); i <= n; i++ {
		if !seen[i] {
			t.Errorf("ticket %d never issued", i)
		}
	}
}

// TestMutexExcludes builds Reed and Kanodia's ticket lock from the two
// primitives, as the Sequencer comment describes: they subsume
// locking.
func TestMutexExcludes(t *testing.T) {
	var seq Sequencer
	var done Eventcount
	var counter, inside int
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				done.Await(seq.Ticket() - 1)
				inside++
				if inside != 1 {
					t.Errorf("mutual exclusion violated: %d inside", inside)
				}
				counter++
				inside--
				done.Advance()
			}
		}()
	}
	wg.Wait()
	if counter != 16*50 {
		t.Errorf("counter = %d, want %d", counter, 16*50)
	}
}

// Property: the value returned by Advance equals the number of
// Advances performed, and Read never decreases.
func TestMonotonicProperty(t *testing.T) {
	f := func(n uint8) bool {
		var e Eventcount
		var last uint64
		for i := 0; i < int(n%64); i++ {
			v := e.Advance()
			if v != last+1 {
				return false
			}
			last = v
			if e.Read() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: concurrent readers never observe the count going
// backwards.
func TestNoBackwardsReads(t *testing.T) {
	var e Eventcount
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := e.Read()
				if v < prev {
					t.Errorf("count went backwards: %d after %d", v, prev)
					return
				}
				prev = v
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		e.Advance()
	}
	close(stop)
	wg.Wait()
}

// TestAwaitAdvanceStorm runs two advancers against two awaiters with
// rising targets, on goroutines, in lock step: in each round both
// advancers advance once and then wait for both awaiters to reach the
// round's count, so the round's last Advance is the only one that can
// wake an awaiter that sleeps. A waiter that misses an advance (an
// Await that sleeps without re-reading the count after raising its
// flag) hangs the round, and the test fails on its timeout.
func TestAwaitAdvanceStorm(t *testing.T) {
	const rounds = 2000
	var ec, acks Eventcount
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint64(1); r <= rounds; r++ {
				ec.Advance()
				acks.Await(2 * r)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint64(1); r <= rounds; r++ {
				if got := ec.Await(2 * r); got < 2*r {
					t.Errorf("Await(%d) returned %d", 2*r, got)
				}
				acks.Advance()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("lost wakeup: stuck at count %d, acks %d of %d", ec.Read(), acks.Read(), 2*rounds)
	}
	if ec.Read() != 2*rounds || acks.Read() != 2*rounds {
		t.Errorf("count %d, acks %d, want %d each", ec.Read(), acks.Read(), 2*rounds)
	}
}

// TestSweepAwaitAdvance runs the same shape on deterministic-executor
// tasks, where Await parks on the executor instead of a channel, and
// explores the interleavings around every advance: in every schedule
// each awaiter wakes at each of its targets and the run ends.
func TestSweepAwaitAdvance(t *testing.T) {
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	const perAdvancer = 3
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointYield && d.Detail == "ec-advance"
		},
	}, func(strat schedsim.Strategy) error {
		var ec Eventcount
		var woken [2]uint64
		ex := schedsim.New(schedsim.Config{Name: "ec-await", Strategy: strat})
		for a := 0; a < 2; a++ {
			ex.Go(fmt.Sprint("advancer", a), func() {
				for i := 0; i < perAdvancer; i++ {
					schedsim.Yield(schedsim.PointYield, "ec-advance")
					ec.Advance()
				}
			})
		}
		for w := 0; w < 2; w++ {
			ex.Go(fmt.Sprint("awaiter", w), func() {
				for v := uint64(1); v <= 2*perAdvancer; v++ {
					if got := ec.Await(v); got < v {
						panic(fmt.Sprintf("Await(%d) returned %d", v, got))
					}
					woken[w] = v
				}
			})
		}
		if err := ex.Run(); err != nil {
			return err
		}
		if woken != [2]uint64{2 * perAdvancer, 2 * perAdvancer} {
			return fmt.Errorf("awaiters reached %v", woken)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous over %d schedules", rep.Schedules)
	}
	t.Logf("%d schedules, %d in-window decisions, truncated=%v", rep.Schedules, rep.WindowDecisions, rep.Truncated)
}

// TestFastPathsAllocateNothing: Read, Advance with no waiter and
// TryAwait are single atomic operations.
func TestFastPathsAllocateNothing(t *testing.T) {
	var e Eventcount
	for name, op := range map[string]func(){
		"Read":     func() { e.Read() },
		"Advance":  func() { e.Advance() },
		"TryAwait": func() { e.TryAwait(1) },
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s allocates %.1f times, want 0", name, allocs)
		}
	}
}

func BenchmarkEventcount(b *testing.B) {
	b.Run("advance", func(b *testing.B) {
		var ec Eventcount
		for i := 0; i < b.N; i++ {
			ec.Advance()
		}
	})
	b.Run("read", func(b *testing.B) {
		var ec Eventcount
		ec.Advance()
		for i := 0; i < b.N; i++ {
			_ = ec.Read()
		}
	})
	b.Run("await-satisfied", func(b *testing.B) {
		var ec Eventcount
		ec.Advance()
		for i := 0; i < b.N; i++ {
			ec.Await(1)
		}
	})
}
