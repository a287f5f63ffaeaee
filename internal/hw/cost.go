package hw

import (
	"sync/atomic"

	"multics/internal/trace"
)

// Simulated cycle costs for the operation classes the paper's
// performance discussion turns on. The absolute values are arbitrary;
// only their ratios matter, and those are chosen so that the shapes the
// paper reports (ring crossings dominating a moved-out linker, IPC
// adding a small unavoidable cost to a multi-process memory manager,
// and so on) emerge from the model rather than being asserted.
const (
	// CycMemRef is one primary-memory word reference.
	CycMemRef = 1
	// CycTableWalk is one address translation through the tables in
	// memory (descriptor fetch plus page-table fetch) when the
	// translation hits.
	CycTableWalk = 4
	// CycAssocHit is one address translation answered by the
	// processor's associative memory, far below CycTableWalk — the
	// 6180 fast path the kernel must keep coherent.
	CycAssocHit = 1
	// CycFault is the hardware cost of taking any exception: saving
	// processor state and transferring to the handler.
	CycFault = 50
	// CycRingCross is one crossing of a protection-ring boundary
	// (a gate call or its return), including argument validation.
	CycRingCross = 30
	// CycIPC is one message through the real-memory message queue
	// between the virtual-processor level and the user-process level
	// (send, wakeup, receive).
	CycIPC = 120
	// CycDispatch is one virtual-processor dispatch (binding a
	// process state to a processor).
	CycDispatch = 80
	// CycProcessSwap is loading or storing a user-process state
	// through the virtual memory (the expensive, top-level half of
	// the two-level process implementation).
	CycProcessSwap = 400
	// CycDiskSeek is positioning a disk pack before a transfer: the
	// full average-distance seek an isolated transfer pays.
	CycDiskSeek = 1000
	// CycDiskSeekShort is a short positioning movement between nearby
	// records, the cost tier elevator-ordered transfers earn: grouped
	// requests pay this instead of the full CycDiskSeek.
	CycDiskSeekShort = 250
	// CycDiskRecord is transferring one 1024-word record.
	CycDiskRecord = 2000
	// CycDiskQueue is enqueuing one request on a pack's device queue:
	// the submitter-side bookkeeping of the asynchronous pipeline.
	CycDiskQueue = 10
	// CycLockWait is one spin on a held global lock (baseline page
	// control) or locked descriptor (kernel design).
	CycLockWait = 5
)

// Language identifies the implementation language of a module body for
// the cost model. The paper reports that recoding an assembly-language
// module in PL/I roughly halves its source lines but slightly more
// than doubles its generated instructions; BodyCycles reproduces that
// factor.
type Language int

const (
	// ASM is hand-coded assembly language (ALM).
	ASM Language = iota
	// PLI is PL/I, the system programming language of Multics.
	PLI
)

// PLIInstructionFactor is the instruction-count penalty, in tenths, of
// a PL/I body relative to the same algorithm in assembly ("somewhat
// more than a factor of two" -- Huber 1976). 22 means x2.2.
const PLIInstructionFactor = 22

// BodyCycles returns the simulated cycles consumed by an algorithm
// body whose assembly-language cost would be base cycles, when coded
// in lang.
func BodyCycles(base int64, lang Language) int64 {
	if lang == PLI {
		return base * PLIInstructionFactor / 10
	}
	return base
}

// MeterCPUs is the number of per-processor cycle counters a CostMeter
// carries; processor ids wrap modulo it.
const MeterCPUs = 64

// A CostMeter accumulates simulated machine cycles. It is safe for
// concurrent use (the multiprocessor fault tests run two simulated
// processors against one meter). Alongside the global total it keeps
// a per-processor account: cycles accrued by a schedsim task bound to
// a simulated processor (uproc.SimExecutor binds each it runs) are
// also charged to that processor, so a parallel run's makespan — the
// busiest processor's cycles — is measurable. Unbound accrual (the
// single-processor mode and the goroutine executor's goroutines) goes
// to the total only, for one extra atomic load.
type CostMeter struct {
	cycles atomic.Int64
	percpu [MeterCPUs]atomic.Int64
}

// Add accrues n simulated cycles.
func (m *CostMeter) Add(n int64) {
	if m != nil {
		m.cycles.Add(n)
		if c := trace.BoundCPU(); c > 0 {
			m.percpu[int(c-1)%MeterCPUs].Add(n)
		}
	}
}

// AddUnbound accrues n simulated cycles to the global total only,
// never to a processor's account: work a device performs on its own
// engine (a disk pack positioning its heads and transferring records
// from its queue) rather than work done by whichever processor happens
// to run the device service loop. Keeping it off the per-processor
// accounts is what lets a makespan be modeled as the busier of the
// busiest processor and the busiest device.
func (m *CostMeter) AddUnbound(n int64) {
	if m != nil {
		m.cycles.Add(n)
	}
}

// CPUCycles reports the cycles charged while bound to processor id.
func (m *CostMeter) CPUCycles(id int) int64 {
	if m == nil || id < 0 {
		return 0
	}
	return m.percpu[id%MeterCPUs].Load()
}

// AddBody accrues the cost of an algorithm body of base assembly
// cycles implemented in lang.
func (m *CostMeter) AddBody(base int64, lang Language) {
	m.Add(BodyCycles(base, lang))
}

// Cycles reports the total simulated cycles accrued so far.
func (m *CostMeter) Cycles() int64 {
	if m == nil {
		return 0
	}
	return m.cycles.Load()
}

// Reset zeroes the meter, including every per-processor account.
func (m *CostMeter) Reset() {
	if m != nil {
		m.cycles.Store(0)
		for i := range m.percpu {
			m.percpu[i].Store(0)
		}
	}
}

// A MeterSnapshot is the meter's reading at one instant. Taking one
// and later asking Since is the idiom for costing an interval;
// callers should not subtract raw Cycles values by hand.
type MeterSnapshot struct {
	// Cycles is the meter reading when the snapshot was taken.
	Cycles int64
}

// Snapshot captures the meter's current reading.
func (m *CostMeter) Snapshot() MeterSnapshot {
	return MeterSnapshot{Cycles: m.Cycles()}
}

// Since reports the cycles accrued since prev was taken.
func (m *CostMeter) Since(prev MeterSnapshot) int64 {
	return m.Cycles() - prev.Cycles
}
