package trace

import (
	"sync"
	"sync/atomic"

	"multics/internal/schedsim"
)

// Processor attribution. Most trace events are emitted by object
// managers that have no idea which simulated CPU invoked them: the
// manager is entered by an ordinary call, not a hardware dispatch.
// The executor therefore binds each execution context that drives a
// processor to that processor's id, and the recorder stamps every
// unstamped event with the binding of the context that emitted it.
//
// A task of the deterministic executor carries its binding itself
// (schedsim.Local), so on a task the lookup is a field read. Off-task
// — the goroutine executor's goroutines and raw goroutines — bindings
// live in a table keyed by goroutine id. When no goroutine is bound —
// the deterministic single-processor mode never binds — the lookup is
// two atomic loads, so the default mode pays nothing and stays
// byte-identical across runs.

const bindShards = 64

type bindShard struct {
	mu  sync.Mutex
	cpu map[uint64]int32
}

var (
	bindCount atomic.Int64
	bindTab   [bindShards]bindShard
)

// BindCPU associates the calling execution context with the simulated
// processor id, so events it emits through any Recorder are
// attributed to that processor. It returns the function that removes
// the binding, which must be called from the same context. Bindings
// nest: unbinding restores the binding that was in force.
func BindCPU(cpu int) func() {
	if l := schedsim.Current(); l != nil {
		prev := l.CPU
		l.CPU = int32(cpu) + 1
		return func() { l.CPU = prev }
	}
	g := schedsim.Self().Goroutine()
	s := &bindTab[g%bindShards]
	s.mu.Lock()
	if s.cpu == nil {
		s.cpu = make(map[uint64]int32)
	}
	prev, had := s.cpu[g]
	s.cpu[g] = int32(cpu) + 1
	s.mu.Unlock()
	if !had {
		bindCount.Add(1)
	}
	return func() {
		s.mu.Lock()
		if had {
			s.cpu[g] = prev
		} else {
			delete(s.cpu, g)
		}
		s.mu.Unlock()
		if !had {
			bindCount.Add(-1)
		}
	}
}

// BoundCPU reports the calling context's processor binding as the
// processor id plus one, zero when unbound. The cost meter uses it to
// attribute cycles per processor; like event stamping, it is a field
// read on a task and two atomic loads when no goroutine is bound
// anywhere.
func BoundCPU() int32 { return boundCPU() }

// boundCPU returns the calling context's processor binding (id plus
// one), zero if none.
func boundCPU() int32 {
	if l := schedsim.Current(); l != nil {
		return l.CPU
	}
	if bindCount.Load() == 0 {
		return 0
	}
	g := schedsim.Self().Goroutine()
	s := &bindTab[g%bindShards]
	s.mu.Lock()
	c := s.cpu[g]
	s.mu.Unlock()
	return c
}
