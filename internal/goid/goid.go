// Package goid identifies the current goroutine.
//
// Go deliberately provides no goroutine-local storage. The kernel asks
// "which execution context am I in?" through schedsim.Self, which
// answers from the deterministic executor's token when the caller is
// one of its tasks, and only off-task — the goroutine executor's
// goroutines and raw goroutines in tests, the truly concurrent callers
// — falls back to the goroutine id parsed here from the runtime's
// stack header. That off-task branch is this package's one caller.
package goid

import "runtime"

// ID returns the current goroutine's id. It is not cheap:
// runtime.Stack walks and formats every frame of the calling goroutine
// whatever the buffer size, so the cost grows with the depth of the
// call — deep kernel paths pay microseconds per call.
func ID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	// The header is "goroutine 123 [running]:..."; digits start at
	// offset 10.
	var id uint64
	for i := 10; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
