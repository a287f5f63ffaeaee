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

// UnattributedModule is the module of a charge or event that names
// none (a missing FaultModules entry or an unset GateModule, say). It
// is deliberately not a dependency-graph module name, so the
// unknown-module lint catches instrumentation that drifted out of
// sync.
const UnattributedModule = "unattributed"

// attributed returns mod, or UnattributedModule when it is empty.
func attributed(mod string) string {
	if mod == "" {
		return UnattributedModule
	}
	return mod
}

// UserModule is the account of the processor's references for user
// code, made outside ring zero: no kernel module, but registered with
// the recorder like one.
const UserModule = "user-computation"

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
	// userGen is UserDT's generation when SwitchUserDT installed it.
	userGen uint64

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
	// FaultModules attributes each fault kind, its cycles and its
	// event, to the module that services it; the kernel fills it from
	// its dependency graph.
	FaultModules [NumFaultKinds]string
	// GateModule is the module the current gate call is attributed
	// to, its crossings and its ring-zero references; the kernel's
	// gate wrapper sets it per processor before each GateCall, so no
	// cross-processor race exists.
	GateModule string

	// Assoc, when non-nil, is this processor's associative memory:
	// the SDW/PTW cache consulted before any table walk. Its mutex
	// doubles as the reference lock Reference holds across
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

// emit traces one processor event, attributed to mod.
func (p *Processor) emit(kind trace.Kind, mod string, arg0, arg1, arg2 int) {
	if p.Trace != nil {
		p.Trace.Emit(trace.Event{
			Kind: kind, Module: attributed(mod), CPU: int32(p.ID) + 1,
			Arg0: int64(arg0), Arg1: int64(arg1), Arg2: int64(arg2),
		})
	}
}

// refModule is the account of the processor's own translations and
// memory references: user computation outside ring zero, the module
// whose gate is running inside it.
func (p *Processor) refModule() string {
	if p.Ring > KernelRing {
		return UserModule
	}
	return p.GateModule
}

// tableFor selects the descriptor table and reports whether the
// segment number is a system number.
func (p *Processor) tableFor(segno int) (*DescriptorTable, bool) {
	if p.SystemDT != nil && segno < p.SystemSegMax {
		return p.SystemDT, true
	}
	return p.UserDT, false
}

// translate performs a full address translation of (segno, offset) for
// a reference of the given mode, accruing cycle costs, and returns the
// absolute memory address. On an exception it returns the Fault, by
// value, with faulted set; for missing-page faults on descriptor-lock
// hardware the fault records that this processor set the lock bit,
// and the locked-descriptor-address register is loaded. When an
// associative memory is fitted the translation is first offered to
// it, and the caller (Reference) holds its mutex, the reference lock,
// across the translation and the access.
func (p *Processor) translate(segno, offset int, mode AccessMode) (addr int, f Fault, faulted bool) {
	if p.Assoc != nil {
		if addr, ok := p.assocLookup(segno, offset, mode); ok {
			return addr, Fault{}, false
		}
		p.Assoc.misses++
		pg := 0
		if offset >= 0 {
			pg = PageOf(offset)
		}
		p.emit(trace.EvAssocMiss, p.AssocModule, segno, pg, 0)
	}
	p.Meter.Add(p.refModule(), CycTableWalk)
	p.xlats.Add(1)
	p.xlatCycles.Add(CycTableWalk)
	dt, system := p.tableFor(segno)
	if dt == nil {
		return p.fault(Fault{Kind: FaultMissingSegment, Seg: segno, Offset: offset, Ring: p.Ring})
	}
	sdw, err := dt.Get(segno)
	if err != nil || !sdw.Present || sdw.Table == nil {
		return p.fault(Fault{Kind: FaultMissingSegment, Seg: segno, Offset: offset, Ring: p.Ring})
	}
	if system && p.Ring > KernelRing {
		// System segment numbers are not visible outside ring 0.
		return p.fault(Fault{Kind: FaultAccess, Seg: segno, Offset: offset, Ring: p.Ring})
	}
	if p.Ring > sdw.MaxRing || !sdw.Access.Has(mode) || (mode.Has(Write) && p.Ring > sdw.WriteRing) {
		return p.fault(Fault{Kind: FaultAccess, Seg: segno, Offset: offset, Write: mode.Has(Write), Ring: p.Ring})
	}
	if offset < 0 {
		return p.fault(Fault{Kind: FaultBounds, Seg: segno, Offset: offset, Ring: p.Ring})
	}
	page := PageOf(offset)
	ptw, kind, faulted, locked := sdw.Table.translate(page, mode.Has(Write), p.DescriptorLockHW)
	if faulted {
		p.Meter.Add(p.FaultModules[kind], CycFault)
		if kind == FaultLockedDescriptor || (kind == FaultMissingPage && locked) {
			p.lockedSeg.Store(int64(segno))
			p.lockedPage.Store(int64(page))
		}
		return p.fault(Fault{
			Kind: kind, Seg: segno, Offset: offset, Page: page,
			Write: mode.Has(Write), Ring: p.Ring, Locked: locked,
		})
	}
	p.Meter.Add(p.refModule(), CycMemRef)
	if p.Assoc != nil {
		p.Assoc.fillLocked(dt, segno, page, ptw.Frame, sdw, system)
	}
	return p.Mem.FrameBase(ptw.Frame) + offset%PageWords, Fault{}, false
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
	p.Meter.Add(p.refModule(), CycAssocHit+CycMemRef)
	p.xlats.Add(1)
	p.xlatCycles.Add(CycAssocHit)
	p.emit(trace.EvAssocHit, p.AssocModule, segno, page, 0)
	return p.Mem.FrameBase(frame) + offset%PageWords, true
}

// SwitchUserDT installs the descriptor table of a newly dispatched
// process. When the address space actually changes, the associative
// memory's user entries are cleared — the selective clear a process
// switch performs, leaving the wired system entries in place. A table
// reset for another process since it was installed (a new generation)
// is a new address space.
func (p *Processor) SwitchUserDT(dt *DescriptorTable) {
	var gen uint64
	if dt != nil {
		gen = dt.Gen()
	}
	if p.Assoc != nil && (p.UserDT != dt || p.userGen != gen) {
		p.Assoc.mu.Lock()
		n := p.Assoc.clearUserLocked()
		p.Assoc.mu.Unlock()
		p.emit(trace.EvAssocClear, p.AssocModule, 2, -1, n)
	}
	p.UserDT, p.userGen = dt, gen
}

// TranslationStats reports the translations this processor has
// performed and the simulated cycles charged for the translation step
// alone (table walks and associative hits; fault and final
// memory-reference cycles are excluded).
func (p *Processor) TranslationStats() (count, cycles int64) {
	return p.xlats.Load(), p.xlatCycles.Load()
}

// fault traces f, attributed to the module the kernel registered to
// service its kind, and returns it as translate's faulting result.
func (p *Processor) fault(f Fault) (int, Fault, bool) {
	p.emit(trace.EvFault, p.FaultModules[f.Kind], int(f.Kind), f.Seg, f.Page)
	return 0, f, true
}

// Reference issues one load (write false) or one store of w at virtual
// address (segno, offset), holding the reference lock across
// translation and the access, so a shootdown cannot retire the frame
// between the two. A hardware exception comes back by value in f, with
// faulted set, so a reference loop that services its own faults (the
// kernel's, the baseline supervisor's) takes one without allocating;
// err reports only a failed memory access. A load returns the word it
// read; a store returns zero.
func (p *Processor) Reference(segno, offset int, write bool, w Word) (val Word, f Fault, faulted bool, err error) {
	if p.Assoc != nil {
		p.Assoc.mu.Lock()
		defer p.Assoc.mu.Unlock()
	}
	mode := Read
	if write {
		mode = Write
	}
	addr, f, faulted := p.translate(segno, offset, mode)
	if faulted {
		return 0, f, true, nil
	}
	if write {
		return 0, Fault{}, false, p.Mem.Write(addr, w)
	}
	val, err = p.Mem.Read(addr)
	return val, Fault{}, false, err
}

// Read loads the word at virtual address (segno, offset), returning a
// hardware exception as a *Fault error.
func (p *Processor) Read(segno, offset int) (Word, error) {
	val, f, faulted, err := p.Reference(segno, offset, false, 0)
	if faulted {
		return 0, f.Err()
	}
	return val, err
}

// Write stores w at virtual address (segno, offset), returning a
// hardware exception as a *Fault error.
func (p *Processor) Write(segno, offset int, w Word) error {
	_, f, faulted, err := p.Reference(segno, offset, true, w)
	if faulted {
		return f.Err()
	}
	return err
}

// GateCall simulates a call through a gate into ring to, accruing the
// ring-crossing cost, running fn, and returning to the original ring
// (a second crossing). Calls inward to a non-gate segment fault.
func (p *Processor) GateCall(to int, gate bool, fn func() error) error {
	if to < 0 || to >= NRings {
		return fmt.Errorf("hw: gate call to ring %d", to)
	}
	if to < p.Ring && !gate {
		p.Meter.Add(p.FaultModules[FaultGate], CycFault)
		f := Fault{Kind: FaultGate, Ring: p.Ring}
		p.emit(trace.EvFault, p.FaultModules[FaultGate], int(FaultGate), f.Seg, f.Page)
		return f.Err()
	}
	from := p.Ring
	// The gate span covers both crossings and the kernel body between
	// them, attributed like the crossing events.
	if to != from {
		p.Trace.BeginSpan(trace.SpanGate, attributed(p.GateModule), int64(to))
		p.Meter.Add(p.GateModule, CycRingCross)
		p.emit(trace.EvGateCross, p.GateModule, from, to, 0)
	}
	p.Ring = to
	err := fn()
	p.Ring = from
	if to != from {
		p.Meter.Add(p.GateModule, CycRingCross)
		p.emit(trace.EvGateCross, p.GateModule, to, from, 0)
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

// LockedDescriptor reports the segment and page number held in the
// locked-descriptor-address register.
func (p *Processor) LockedDescriptor() (segno, page int) {
	return int(p.lockedSeg.Load()), int(p.lockedPage.Load())
}
