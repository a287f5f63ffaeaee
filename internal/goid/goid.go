// Package goid identifies the current goroutine.
//
// Go deliberately provides no goroutine-local storage. A task of the
// deterministic executor carries its per-processor state on the task
// (schedsim.Local); off a task — the goroutine executor's goroutines,
// raw goroutines in tests and single-processor code — lockrank keys
// each held-lock stack by the goroutine id parsed here from the
// runtime's stack header. lockrank is this package's only importer.
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
