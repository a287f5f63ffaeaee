package trace

import "multics/internal/schedsim"

// Processor attribution. Most trace events are emitted by object
// managers that have no idea which simulated CPU invoked them: the
// manager is entered by an ordinary call, not a hardware dispatch.
// The deterministic executor therefore binds each task that drives a
// processor to that processor's id, and the recorder stamps every
// unstamped event with the binding of the task that emitted it.
//
// The binding lives on the task itself (schedsim.Local), the
// simulation's counterpart of the paper's per-processor wired table,
// so the lookup is a field read. Off a task nothing is bound: the
// single-processor mode and the goroutine executor's goroutines read
// zero, so their events and cycles go unattributed.

// BindCPU binds the calling schedsim task to the simulated processor
// id, so events it emits through any Recorder and cycles it charges
// are attributed to that processor. It returns the function that
// removes the binding, which must be called from the same task.
// Bindings nest: unbinding restores the binding that was in force.
// Off a task there is nowhere to keep a binding, and BindCPU panics.
func BindCPU(cpu int) func() {
	l := schedsim.Current()
	if l == nil {
		panic("trace: BindCPU called off a schedsim task")
	}
	prev := l.CPU
	l.CPU = int32(cpu) + 1
	return func() { l.CPU = prev }
}

// BoundCPU reports the calling task's processor binding as the
// processor id plus one, zero when unbound or off a task. The cost
// meter uses it to attribute cycles per processor.
func BoundCPU() int32 {
	if l := schedsim.Current(); l != nil {
		return l.CPU
	}
	return 0
}
