package core

import (
	"multics/internal/answering"
	"multics/internal/hw"
	"multics/internal/uproc"
)

// StormOps adapts the kernel's process plane to the answering
// service's login-storm driver. The answering service stays above the
// process-plane abstraction — it sees opaque handles — and this is
// the one place where the handles are given back their type.
func (k *Kernel) StormOps(ex uproc.Executor, cpus []*hw.Processor) answering.StormOps {
	return answering.StormOps{
		Quanta: func(n int, body func(proc any)) (int, error) {
			return k.Procs.RunQuantumWith(ex, cpus, n, func(_ *hw.Processor, p *uproc.Process) {
				body(p)
			})
		},
		Block: func(proc any) error {
			// A nil eventcount blocks until any wakeup message
			// addressed to the process arrives.
			return k.Procs.Block(proc.(*uproc.Process), nil, 0)
		},
		Wake: func(proc any) error {
			return k.Procs.Wakeup(proc.(*uproc.Process).ID(), 0)
		},
		Deliver: func() (int, error) { return k.Procs.DeliverEvents() },
		Destroy: func(proc any) error { return k.Procs.Destroy(proc.(*uproc.Process)) },
		CPUOf:   func(proc any) int64 { return proc.(*uproc.Process).CPU() },
	}
}
