// Package eventcount implements the synchronization primitives of
// Reed and Kanodia cited by the kernel design: eventcounts and
// sequencers.
//
// An eventcount is a monotonically increasing counter naming how many
// events of some class have occurred. Processes follow it with Read,
// wait for it with Await, and signal with Advance. The property the
// two-level process implementation depends on is that the discoverer
// of an event does not need to know the identity of the processes
// awaiting it: Advance simply increments and wakes whoever is behind.
//
// A sequencer hands out totally ordered tickets, used together with an
// eventcount to build mutual exclusion without a shared lock word.
package eventcount

import (
	"sync"
	"sync/atomic"

	"multics/internal/schedsim"
	"multics/internal/trace"
)

// An Eventcount is a monotonically increasing event counter. The zero
// value is a valid eventcount at zero.
//
// The count is a lone atomic word: Read, TryAwait and Advance take no
// lock. Only a goroutine that must sleep touches mu: under it, Await
// makes the wake-up channel, raises waiting and reads the count again.
// Advance takes mu, to close the channel, only when it sees waiting
// raised. The two sides are Dekker's: Advance stores the count, then
// loads the flag; Await stores the flag, then loads the count. Go's
// atomics are sequentially consistent, so at least one side sees the
// other's store: either Advance sees the waiter and closes its
// channel, or the waiter's re-check sees the new count and it does not
// sleep.
type Eventcount struct {
	count   atomic.Uint64
	waiting atomic.Bool

	mu      sync.Mutex
	changed chan struct{}

	// trace and module route await/advance operations into the
	// kernel trace when the owning manager's constructor calls Trace;
	// the zero value emits nothing.
	trace  *trace.Recorder
	module string
}

// Trace routes this eventcount's await and advance operations to rec
// (nil when untraced), attributed to module (the owning manager's
// dependency-graph name). The owner calls it once, when it builds the
// eventcount and before anyone else can reach it.
func (e *Eventcount) Trace(rec *trace.Recorder, module string) {
	e.trace = rec
	e.module = module
}

// Read returns the current value. A value read is a lower bound on
// the number of Advance calls completed.
func (e *Eventcount) Read() uint64 { return e.count.Load() }

// Advance increments the eventcount by one, waking every waiter whose
// awaited value has now been reached, and returns the new value.
func (e *Eventcount) Advance() uint64 {
	c := e.count.Add(1)
	if e.trace != nil {
		e.trace.Emit(trace.Event{Kind: trace.EvAdvance, Module: e.module, Arg0: int64(c)})
	}
	if e.waiting.Load() {
		e.mu.Lock()
		if e.changed != nil {
			close(e.changed)
			e.changed = nil
		}
		e.waiting.Store(false)
		e.mu.Unlock()
	}
	return c
}

// Await blocks until the eventcount reaches at least v and returns the
// value observed (which may exceed v).
func (e *Eventcount) Await(v uint64) uint64 {
	for {
		c := e.count.Load()
		if c >= v {
			return c
		}
		if schedsim.OnTask() {
			// Under the deterministic executor a channel wait would
			// stall the whole schedule; park the task on a readiness
			// predicate instead and let the scheduler pick an
			// advancer. One task runs at a time, so nothing can
			// advance between the load and the park.
			e.traceAwait(v, c)
			schedsim.Block("eventcount await", func() bool { return e.Read() >= v })
			continue
		}
		e.mu.Lock()
		if e.changed == nil {
			e.changed = make(chan struct{})
		}
		e.waiting.Store(true)
		// The re-check after raising the flag: an Advance that
		// loaded the flag before this store has already stored its
		// count, and this load sees it.
		if c = e.count.Load(); c >= v {
			e.mu.Unlock()
			return c
		}
		e.traceAwait(v, c)
		ch := e.changed
		e.mu.Unlock()
		<-ch
	}
}

func (e *Eventcount) traceAwait(v, c uint64) {
	if e.trace != nil {
		e.trace.Emit(trace.Event{Kind: trace.EvAwait, Module: e.module, Arg0: int64(v), Arg1: int64(c)})
	}
}

// TryAwait reports whether the eventcount has reached v without
// blocking, returning the current value.
func (e *Eventcount) TryAwait(v uint64) (uint64, bool) {
	c := e.count.Load()
	return c, c >= v
}

// A Sequencer issues totally ordered tickets. The zero value is valid
// and issues 1 first, so that pairing with a zero eventcount gives the
// usual ticket lock: acquire with t := Ticket() then Await(t-1), and
// release with Advance.
type Sequencer struct {
	mu   sync.Mutex
	next uint64
}

// Ticket returns the next value in the total order, starting at 1.
func (s *Sequencer) Ticket() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return s.next
}
