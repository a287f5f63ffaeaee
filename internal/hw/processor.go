package hw

import (
	"fmt"
	"sync/atomic"

	"multics/internal/trace"
)

func init() {
	// Teach the trace exporters the hardware's fault-kind names, so
	// the trace package needs no dependency on this one.
	trace.SetFaultNamer(func(kind int) string { return FaultKind(kind).String() })
}

// UnattributedModule is the module name stamped on trace events when
// the kernel has not told the processor whom to charge (a missing
// FaultModules entry or an unset GateModule). It is deliberately not
// a dependency-graph module name, so the unknown-module lint catches
// instrumentation that drifted out of sync.
const UnattributedModule = "unattributed"

// NRings is the number of protection rings (Multics hardware provides
// eight).
const NRings = 8

// KernelRing is the ring of the security kernel (ring zero).
const KernelRing = 0

// UserRing is the ring in which ordinary user programs execute.
const UserRing = 4

// A Processor simulates one CPU. It holds the two descriptor base
// registers of the kernel design: SystemDT, the permanently resident
// descriptor table through which all segment numbers below SystemSegMax
// translate, and UserDT, the per-process table for user segment
// numbers. It also carries the per-processor state the paper adds to
// make the two-level process design work: the wakeup-waiting switch
// and the locked-descriptor-address register.
type Processor struct {
	ID    int
	Mem   *Memory
	Meter *CostMeter

	// SystemDT translates segment numbers < SystemSegMax. It is
	// fixed at initialization; kernel modules using such numbers
	// therefore cannot depend on the user address-space machinery.
	SystemDT     *DescriptorTable
	SystemSegMax int
	// UserDT translates segment numbers >= SystemSegMax. It changes
	// on every user-process dispatch.
	UserDT *DescriptorTable

	// Ring is the current validation ring.
	Ring int

	// DescriptorLockHW enables the descriptor-lock addition: a
	// missing-page fault atomically sets the descriptor's lock bit.
	// The baseline (1974) processor runs with this false and its
	// page control must take a global lock and interpretively
	// retranslate.
	DescriptorLockHW bool

	// wakeupWaiting is the per-processor switch that prevents a
	// lost notification between a locked-descriptor fault and the
	// wait primitive.
	wakeupWaiting atomic.Bool

	// lockedSeg/lockedPage form the register recording the address
	// of the descriptor whose lock bit caused the most recent
	// locked-descriptor or missing-page fault.
	lockedSeg  atomic.Int64
	lockedPage atomic.Int64

	// Trace receives fault and ring-crossing events when non-nil.
	Trace *trace.Recorder
	// FaultModules attributes each fault kind to the module that
	// services it; the kernel fills it from its dependency graph.
	FaultModules map[FaultKind]string
	// GateModule is the module the current gate call is attributed
	// to; the kernel's gate wrapper sets it per processor before
	// each GateCall, so no cross-processor race exists.
	GateModule string

	// Assoc, when non-nil, is this processor's associative memory:
	// the SDW/PTW cache consulted before any table walk. Its mutex
	// doubles as the reference lock Read/Write/Translate hold across
	// translate-plus-access, which is what makes a shootdown
	// broadcast a barrier against stale translations.
	Assoc *AssociativeMemory
	// AssocModule is the module associative-memory events are
	// attributed to; the kernel points it at the page frame manager,
	// whose descriptor traffic the cache exists to absorb.
	AssocModule string

	// xlats/xlatCycles count address translations and the simulated
	// cycles charged for the translation step alone (walks and
	// associative hits, not faults or the final memory reference),
	// so the fast path's effect is measurable with the cache off.
	xlats      atomic.Int64
	xlatCycles atomic.Int64
}

// NewProcessor returns a processor with the given id attached to mem,
// metering onto meter (which may be nil).
func NewProcessor(id int, mem *Memory, meter *CostMeter) *Processor {
	return &Processor{ID: id, Mem: mem, Meter: meter, Ring: KernelRing}
}

// emitFault traces one taken fault, charged the cycles the hardware
// actually metered for it. The module charged is the one the kernel
// registered to service that fault kind.
func (p *Processor) emitFault(f *Fault, cost int64) {
	if p.Trace == nil {
		return
	}
	mod := p.FaultModules[f.Kind]
	if mod == "" {
		mod = UnattributedModule
	}
	p.Trace.Emit(trace.Event{
		Kind: trace.EvFault, Module: mod, CPU: int32(p.ID) + 1, Cost: cost,
		Arg0: int64(f.Kind), Arg1: int64(f.Seg), Arg2: int64(f.Page),
	})
}

// emitCross traces one ring crossing, attributed to the module the
// kernel's gate wrapper named.
func (p *Processor) emitCross(from, to int) {
	if p.Trace == nil {
		return
	}
	mod := p.GateModule
	if mod == "" {
		mod = UnattributedModule
	}
	p.Trace.Emit(trace.Event{
		Kind: trace.EvGateCross, Module: mod, CPU: int32(p.ID) + 1, Cost: CycRingCross,
		Arg0: int64(from), Arg1: int64(to),
	})
}

// tableFor selects the descriptor table and reports whether the
// segment number is a system number.
func (p *Processor) tableFor(segno int) (*DescriptorTable, bool) {
	if p.SystemDT != nil && segno < p.SystemSegMax {
		return p.SystemDT, true
	}
	return p.UserDT, false
}

// Translate performs a full address translation of (segno, offset) for
// a reference of the given mode, accruing cycle costs, and returns the
// absolute memory address. On an exception it returns a *Fault; for
// missing-page faults on descriptor-lock hardware the fault records
// that this processor set the lock bit, and the locked-descriptor-
// address register is loaded.
//
// When an associative memory is fitted, the translation is first
// offered to it; Translate holds its mutex (the reference lock) for
// the duration, so a caller wanting the returned address to stay
// valid across the access must use Read or Write, which hold the lock
// across both steps.
func (p *Processor) Translate(segno, offset int, mode AccessMode) (int, error) {
	if p.Assoc != nil {
		p.Assoc.mu.Lock()
		defer p.Assoc.mu.Unlock()
	}
	return p.translate(segno, offset, mode)
}

// translate is the translation body; the caller holds the associative
// memory's mutex when one is fitted.
func (p *Processor) translate(segno, offset int, mode AccessMode) (int, error) {
	if p.Assoc != nil {
		if addr, ok := p.assocLookup(segno, offset, mode); ok {
			return addr, nil
		}
		p.Assoc.misses++
		pg := 0
		if offset >= 0 {
			pg = PageOf(offset)
		}
		p.emitAssoc(trace.EvAssocMiss, CycTableWalk, segno, pg, 0)
	}
	p.Meter.Add(CycTableWalk)
	p.xlats.Add(1)
	p.xlatCycles.Add(CycTableWalk)
	dt, system := p.tableFor(segno)
	if dt == nil {
		return 0, p.fault(&Fault{Kind: FaultMissingSegment, Seg: segno, Offset: offset, Ring: p.Ring}, 0)
	}
	sdw, err := dt.Get(segno)
	if err != nil || !sdw.Present || sdw.Table == nil {
		return 0, p.fault(&Fault{Kind: FaultMissingSegment, Seg: segno, Offset: offset, Ring: p.Ring}, 0)
	}
	if system && p.Ring > KernelRing {
		// System segment numbers are not visible outside ring 0.
		return 0, p.fault(&Fault{Kind: FaultAccess, Seg: segno, Offset: offset, Ring: p.Ring}, 0)
	}
	if p.Ring > sdw.MaxRing || !sdw.Access.Has(mode) || (mode.Has(Write) && p.Ring > sdw.WriteRing) {
		return 0, p.fault(&Fault{Kind: FaultAccess, Seg: segno, Offset: offset, Write: mode.Has(Write), Ring: p.Ring}, 0)
	}
	if offset < 0 {
		return 0, p.fault(&Fault{Kind: FaultBounds, Seg: segno, Offset: offset, Ring: p.Ring}, 0)
	}
	page := PageOf(offset)
	ptw, kind, faulted, locked := sdw.Table.translate(page, mode.Has(Write), p.DescriptorLockHW)
	if faulted {
		p.Meter.Add(CycFault)
		if kind == FaultLockedDescriptor || (kind == FaultMissingPage && locked) {
			p.lockedSeg.Store(int64(segno))
			p.lockedPage.Store(int64(page))
		}
		return 0, p.fault(&Fault{
			Kind: kind, Seg: segno, Offset: offset, Page: page,
			Write: mode.Has(Write), Ring: p.Ring, Locked: locked,
		}, CycFault)
	}
	p.Meter.Add(CycMemRef)
	if p.Assoc != nil {
		p.Assoc.fillLocked(dt, segno, page, ptw.Frame, sdw, system)
	}
	return p.Mem.FrameBase(ptw.Frame) + offset%PageWords, nil
}

// assocLookup consults the associative memory for (segno, offset). A
// hit re-validates the ring and access checks against the cached SDW —
// a gate crossing changes the validation ring between references, and
// a cached descriptor must never grant what the current ring may not
// use — and any check failure falls through to the table walk, which
// raises the canonical fault. Locked or quota-trapped descriptors can
// never be served here: only present, unlocked translations are ever
// filled, and every transition away from that state broadcasts a
// shootdown first. The caller holds the associative memory's mutex.
func (p *Processor) assocLookup(segno, offset int, mode AccessMode) (int, bool) {
	if offset < 0 {
		return 0, false
	}
	dt, system := p.tableFor(segno)
	if dt == nil {
		return 0, false
	}
	a := p.Assoc
	sdw, ok := a.lookupSDWLocked(dt, segno)
	if !ok {
		return 0, false
	}
	if system && p.Ring > KernelRing {
		return 0, false
	}
	if p.Ring > sdw.MaxRing || !sdw.Access.Has(mode) || (mode.Has(Write) && p.Ring > sdw.WriteRing) {
		return 0, false
	}
	page := PageOf(offset)
	frame, ok := a.lookupPTWLocked(sdw.Table, segno, page)
	if !ok {
		return 0, false
	}
	// Write-through of the hardware's reference bits: the walk is
	// skipped, but the eviction clock still needs Used/Modified.
	if _, err := sdw.Table.Update(page, func(d *PTW) {
		d.Used = true
		if mode.Has(Write) {
			d.Modified = true
		}
	}); err != nil {
		return 0, false
	}
	a.hits++
	p.Meter.Add(CycAssocHit + CycMemRef)
	p.xlats.Add(1)
	p.xlatCycles.Add(CycAssocHit)
	p.emitAssoc(trace.EvAssocHit, CycAssocHit, segno, page, 0)
	return p.Mem.FrameBase(frame) + offset%PageWords, true
}

// emitAssoc traces one associative-memory event.
func (p *Processor) emitAssoc(kind trace.Kind, cost int64, arg0, arg1, arg2 int) {
	if p.Trace == nil {
		return
	}
	mod := p.AssocModule
	if mod == "" {
		mod = UnattributedModule
	}
	p.Trace.Emit(trace.Event{
		Kind: kind, Module: mod, CPU: int32(p.ID) + 1, Cost: cost,
		Arg0: int64(arg0), Arg1: int64(arg1), Arg2: int64(arg2),
	})
}

// SwitchUserDT installs the descriptor table of a newly dispatched
// process. When the address space actually changes, the associative
// memory's user entries are cleared — the selective clear a process
// switch performs, leaving the wired system entries in place.
func (p *Processor) SwitchUserDT(dt *DescriptorTable) {
	if p.Assoc != nil && p.UserDT != dt {
		p.Assoc.mu.Lock()
		n := p.Assoc.clearUserLocked()
		p.Assoc.mu.Unlock()
		p.emitAssoc(trace.EvAssocClear, 0, 2, -1, n)
	}
	p.UserDT = dt
}

// TranslationStats reports the translations this processor has
// performed and the simulated cycles charged for the translation step
// alone (table walks and associative hits; fault and final
// memory-reference cycles are excluded).
func (p *Processor) TranslationStats() (count, cycles int64) {
	return p.xlats.Load(), p.xlatCycles.Load()
}

// fault traces f (charged the cycles the hardware metered for it) and
// returns it.
func (p *Processor) fault(f *Fault, cost int64) error {
	p.emitFault(f, cost)
	return f
}

// Read loads the word at virtual address (segno, offset). The
// reference lock is held across translation and the load, so a
// shootdown cannot retire the frame between the two.
func (p *Processor) Read(segno, offset int) (Word, error) {
	if p.Assoc != nil {
		p.Assoc.mu.Lock()
		defer p.Assoc.mu.Unlock()
	}
	addr, err := p.translate(segno, offset, Read)
	if err != nil {
		return 0, err
	}
	return p.Mem.Read(addr)
}

// Write stores w at virtual address (segno, offset), holding the
// reference lock across translation and the store.
func (p *Processor) Write(segno, offset int, w Word) error {
	if p.Assoc != nil {
		p.Assoc.mu.Lock()
		defer p.Assoc.mu.Unlock()
	}
	addr, err := p.translate(segno, offset, Write)
	if err != nil {
		return err
	}
	return p.Mem.Write(addr, w)
}

// GateCall simulates a call through a gate into ring to, accruing the
// ring-crossing cost, running fn, and returning to the original ring
// (a second crossing). Calls inward to a non-gate segment fault.
func (p *Processor) GateCall(to int, gate bool, fn func() error) error {
	if to < 0 || to >= NRings {
		return fmt.Errorf("hw: gate call to ring %d", to)
	}
	if to < p.Ring && !gate {
		p.Meter.Add(CycFault)
		return p.fault(&Fault{Kind: FaultGate, Ring: p.Ring}, CycFault)
	}
	from := p.Ring
	// The gate span covers both crossings and the kernel body between
	// them, attributed like the crossing events.
	if to != from {
		mod := p.GateModule
		if mod == "" {
			mod = UnattributedModule
		}
		p.Trace.BeginSpan(trace.SpanGate, mod, int64(to))
		p.Meter.Add(CycRingCross)
		p.emitCross(from, to)
	}
	p.Ring = to
	err := fn()
	p.Ring = from
	if to != from {
		p.Meter.Add(CycRingCross)
		p.emitCross(to, from)
		p.Trace.EndSpan(trace.SpanGate)
	}
	return err
}

// SetWakeupWaiting sets the wakeup-waiting switch; it is set by the
// hardware/handler just before a processor decides to wait for a
// locked descriptor, so that a notification arriving in the window
// between the fault and the wait primitive is not lost.
func (p *Processor) SetWakeupWaiting() { p.wakeupWaiting.Store(true) }

// ClearWakeupWaiting clears the switch, reporting whether it was set.
// The notify path clears it; a true result means a notification
// arrived and the wait primitive should return immediately.
func (p *Processor) ClearWakeupWaiting() bool { return p.wakeupWaiting.Swap(false) }

// WakeupWaiting reports the switch without clearing it.
func (p *Processor) WakeupWaiting() bool { return p.wakeupWaiting.Load() }

// LockedDescriptor reports the segment and page number held in the
// locked-descriptor-address register.
func (p *Processor) LockedDescriptor() (segno, page int) {
	return int(p.lockedSeg.Load()), int(p.lockedPage.Load())
}
