package eventcount

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
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
	if s.Read() != 0 {
		t.Fatalf("zero sequencer reads %d", s.Read())
	}
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
	if s.Read() != n {
		t.Errorf("Read = %d, want %d", s.Read(), n)
	}
}

func TestMutexExcludes(t *testing.T) {
	var m Mutex
	var counter, inside int
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				m.Lock()
				inside++
				if inside != 1 {
					t.Errorf("mutual exclusion violated: %d inside", inside)
				}
				counter++
				inside--
				m.Unlock()
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
	b.Run("ticket-mutex", func(b *testing.B) {
		var m Mutex
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
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
