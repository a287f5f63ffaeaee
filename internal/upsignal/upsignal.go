// Package upsignal implements the software mechanism for signalling
// upward in the dependency structure without creating dependencies:
// control and arguments are transferred to a higher-level module
// without leaving behind any procedure activation records or other
// unfinished business in expectation of a subsequent return of
// control.
//
// A lower-level module Raises a signal and returns normally; its
// entire call chain unwinds. The kernel's dispatch loop then runs the
// registered handler of the target module. Because nothing below the
// handler is waiting for it, the lower modules do not depend on the
// higher one finishing the job — the property that lets the known
// segment manager hand the directory manager the task of updating a
// directory entry after a full-pack relocation.
package upsignal

import (
	"fmt"
	"sync"

	"multics/internal/trace"
)

// A Signal is one upward transfer: the target module's name and the
// arguments it needs (including any saved process state the handler
// must restore).
type Signal struct {
	Target string
	Args   any
}

// A Handler consumes one signal at the upper level.
type Handler func(Signal) error

// A Dispatcher queues raised signals and runs them outside the
// raiser's call chain.
type Dispatcher struct {
	mu       sync.Mutex
	handlers map[string]Handler
	pending  []Signal
	// dispatching is set while Dispatch runs. Callers serialize
	// Dispatch, so finding it set means a handler called Dispatch from
	// inside its own call chain.
	dispatching bool
	raised      int64
	handled     int64
	trace       *trace.Recorder
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{handlers: make(map[string]Handler)}
}

// SetTrace routes raise and handle events to rec, each attributed to
// the signal's target module (targets are dependency-graph module
// names). A nil rec turns tracing off.
func (d *Dispatcher) SetTrace(rec *trace.Recorder) {
	d.mu.Lock()
	d.trace = rec
	d.mu.Unlock()
}

// Register installs the handler for a target module. A module
// registers once, at system initialization.
func (d *Dispatcher) Register(target string, h Handler) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.handlers[target]; ok {
		return fmt.Errorf("upsignal: module %s already registered", target)
	}
	if h == nil {
		return fmt.Errorf("upsignal: nil handler for module %s", target)
	}
	d.handlers[target] = h
	return nil
}

// Raise queues a signal for the target module and returns immediately:
// the raiser keeps no activation record waiting for the handler. The
// target must be registered.
func (d *Dispatcher) Raise(sig Signal) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.handlers[sig.Target]; !ok {
		return fmt.Errorf("upsignal: no handler registered for module %s", sig.Target)
	}
	d.pending = append(d.pending, sig)
	d.raised++
	if d.trace != nil {
		d.trace.Emit(trace.Event{Kind: trace.EvSignalRaise, Module: sig.Target, Arg0: int64(len(d.pending))})
	}
	return nil
}

// Pending reports the number of queued signals.
func (d *Dispatcher) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// Stats reports how many signals have been raised and handled.
func (d *Dispatcher) Stats() (raised, handled int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.raised, d.handled
}

// Dispatch runs queued signals in order until the queue is empty
// (handlers may raise further signals) and returns the number handled.
// The kernel calls it after every downward call chain has unwound. A
// handler error stops dispatch and is returned; remaining signals stay
// queued. Callers must serialize Dispatch (the kernel holds its gate
// lock around it), so handlers run one at a time. Dispatch is not
// re-entrant: a nested call (a handler signalling and then
// dispatching) is a structural error and panics, because it would put
// activation records of lower modules under the upper handler.
func (d *Dispatcher) Dispatch() (int, error) {
	d.mu.Lock()
	if d.dispatching {
		d.mu.Unlock()
		panic("upsignal: re-entrant Dispatch — a lower module is waiting on an upper handler")
	}
	d.dispatching = true
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.dispatching = false
		d.mu.Unlock()
	}()

	n := 0
	for {
		d.mu.Lock()
		if len(d.pending) == 0 {
			d.mu.Unlock()
			return n, nil
		}
		sig := d.pending[0]
		d.pending = d.pending[1:]
		h := d.handlers[sig.Target]
		tr := d.trace
		d.mu.Unlock()

		tr.BeginSpan(trace.SpanSignal, sig.Target, int64(n))
		err := h(sig)
		tr.EndSpan(trace.SpanSignal)
		if err != nil {
			return n, fmt.Errorf("upsignal: handler for %s: %w", sig.Target, err)
		}
		d.mu.Lock()
		d.handled++
		if d.trace != nil {
			d.trace.Emit(trace.Event{Kind: trace.EvSignalHandle, Module: sig.Target, Arg0: d.handled})
		}
		d.mu.Unlock()
		n++
	}
}
