// Package profile backs the -cpuprofile and -memprofile flags of the
// command-line tools with the standard library's runtime/pprof, so a
// host-clock profile of any run is one flag away:
//
//	go run ./cmd/kernelbench -json '' -cpuprofile cpu.out
//	go tool pprof -top cpu.out
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, if it is not empty,
// and returns the function that ends the run's profiling: it stops the
// CPU profile and, if memPath is not empty, writes a heap profile
// there after a collection. Call it once, when the profiled work is
// done.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
