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

	"multics/internal/schedsim"
	"multics/internal/trace"
)

// An Eventcount is a monotonically increasing event counter. The zero
// value is a valid eventcount at zero.
type Eventcount struct {
	mu      sync.Mutex
	count   uint64
	changed chan struct{}

	// trace and module route await/advance operations into the
	// kernel trace when the owning manager calls Trace; the zero
	// value emits nothing.
	trace  *trace.Recorder
	module string
}

// Trace routes this eventcount's await and advance operations to rec,
// attributed to module (the owning manager's dependency-graph name).
// A nil rec turns tracing off.
func (e *Eventcount) Trace(rec *trace.Recorder, module string) {
	e.mu.Lock()
	e.trace = rec
	e.module = module
	e.mu.Unlock()
}

// Read returns the current value. A value read is a lower bound on
// the number of Advance calls completed.
func (e *Eventcount) Read() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// Advance increments the eventcount by one, waking every waiter whose
// awaited value has now been reached, and returns the new value.
func (e *Eventcount) Advance() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.count++
	if e.trace != nil {
		e.trace.Emit(trace.Event{Kind: trace.EvAdvance, Module: e.module, Arg0: int64(e.count)})
	}
	if e.changed != nil {
		close(e.changed)
		e.changed = nil
	}
	return e.count
}

// Await blocks until the eventcount reaches at least v and returns the
// value observed (which may exceed v).
func (e *Eventcount) Await(v uint64) uint64 {
	for {
		e.mu.Lock()
		if e.count >= v {
			c := e.count
			e.mu.Unlock()
			return c
		}
		if e.changed == nil {
			e.changed = make(chan struct{})
		}
		if e.trace != nil {
			e.trace.Emit(trace.Event{Kind: trace.EvAwait, Module: e.module, Arg0: int64(v), Arg1: int64(e.count)})
		}
		ch := e.changed
		e.mu.Unlock()
		if schedsim.OnTask() {
			// Under the deterministic executor a channel wait would
			// stall the whole schedule; park the task on a readiness
			// predicate instead and let the scheduler pick an
			// advancer.
			schedsim.Block("eventcount await", func() bool { return e.Read() >= v })
			continue
		}
		<-ch
	}
}

// TryAwait reports whether the eventcount has reached v without
// blocking, returning the current value.
func (e *Eventcount) TryAwait(v uint64) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count, e.count >= v
}

// A Sequencer issues totally ordered tickets. The zero value is valid
// and issues 1 first, so that pairing with a zero eventcount gives the
// usual ticket-lock construction: Await(Ticket()-? ...).
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

// Read returns the most recently issued ticket (0 if none).
func (s *Sequencer) Read() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// A Mutex is the eventcount-and-sequencer mutual exclusion of Reed and
// Kanodia: a process takes a ticket and awaits the eventcount reaching
// ticket-1 (all earlier holders done), and releasing advances the
// count. It demonstrates that the primitives subsume locking.
type Mutex struct {
	seq  Sequencer
	done Eventcount
}

// Lock acquires the mutex.
func (m *Mutex) Lock() {
	t := m.seq.Ticket()
	m.done.Await(t - 1)
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	m.done.Advance()
}
