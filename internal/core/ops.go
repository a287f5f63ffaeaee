package core

import (
	"errors"
	"fmt"

	"multics/internal/aim"
	"multics/internal/directory"
	"multics/internal/hw"
	"multics/internal/knownseg"
	"multics/internal/segment"
	"multics/internal/trace"
	"multics/internal/uproc"
)

// bodyUserWalk is the per-component cost of the user-ring pathname
// expansion program — the code Bratt's design moved out of the
// kernel, a quarter the size of its in-kernel ancestor.
const bodyUserWalk = 30

// ErrFaultLoop is returned when a reference keeps faulting without
// making progress.
var ErrFaultLoop = errors.New("core: reference faulted without progress")

// ErrRetryBudget marks a reference that ran its whole fault-service
// retry budget out. It wraps ErrFaultLoop, so existing callers that
// match the generic fault loop keep working, while callers that care
// can distinguish budget exhaustion — the starvation case the
// retry-pressure counters track — from other no-progress loops.
var ErrRetryBudget = fmt.Errorf("%w (retry budget exhausted)", ErrFaultLoop)

// Attach binds a user process's address space to a CPU. This is the
// process-switch point: installing a different descriptor table clears
// the processor's associative memory of user entries, so nothing of
// the previous process's address space can be served to the new one.
func (k *Kernel) Attach(cpu *hw.Processor, p *uproc.Process) {
	cpu.SwitchUserDT(p.DT())
	cpu.Ring = hw.UserRing
	// Span self-time on this processor is attributed to p from here
	// on, whichever context attaches it.
	k.Trace.SetRunningProcess(cpu.ID, p.ID())
}

// CreateProcess makes a user process for an authenticated principal.
// The creation is charged to no process: whichever process the calling
// processor runs is set aside while it lasts, so its spans are not
// charged to a bystander, and runs on afterwards.
func (k *Kernel) CreateProcess(principal string, label aim.Label) (*uproc.Process, error) {
	prev := k.Trace.SwapRunningProcess(0)
	defer k.Trace.SwapRunningProcess(prev)
	return k.Procs.Create(principal, label)
}

// gate runs fn in ring zero via a gate crossing on cpu (cpu may be
// nil for kernel-internal callers). module names the manager the
// crossing is attributed to in the kernel trace.
func (k *Kernel) gate(cpu *hw.Processor, module string, fn func() error) error {
	if cpu == nil {
		return fn()
	}
	cpu.GateModule = module
	return cpu.GateCall(hw.KernelRing, true, fn)
}

// Search is the gate to the protected single-directory search
// primitive.
func (k *Kernel) Search(cpu *hw.Processor, p *uproc.Process, dirID directory.Identifier, name string) (directory.Identifier, error) {
	var id directory.Identifier
	err := k.gate(cpu, ModDir, func() error {
		var err error
		id, err = k.Dirs.Search(directory.Principal(p.Principal()), p.Label(), dirID, name)
		return err
	})
	return id, err
}

// WalkPath is the user-ring pathname expansion built on the Search
// gate: one gate crossing per component plus the (small) user-ring
// expansion program. This is the post-Bratt design.
func (k *Kernel) WalkPath(cpu *hw.Processor, p *uproc.Process, path []string) (directory.Identifier, error) {
	id := k.Dirs.RootID()
	for _, name := range path {
		k.Meter.AddBody(hw.UserModule, bodyUserWalk, hw.PLI)
		next, err := k.Search(cpu, p, id, name)
		if err != nil {
			return 0, err
		}
		id = next
	}
	return id, nil
}

// ResolveKernel is the pre-redesign path resolution: the whole
// expansion buried in the supervisor behind a single gate, answering
// only "found" or "no access".
func (k *Kernel) ResolveKernel(cpu *hw.Processor, p *uproc.Process, path []string) (directory.Identifier, error) {
	var id directory.Identifier
	err := k.gate(cpu, ModDir, func() error {
		var err error
		id, err = k.Dirs.ResolvePathKernel(directory.Principal(p.Principal()), p.Label(), path)
		return err
	})
	return id, err
}

// Open initiates the object named by id into the process's address
// space and returns its segment number. The first reference will take
// a missing-segment fault and connect through the standard machinery.
func (k *Kernel) Open(cpu *hw.Processor, p *uproc.Process, id directory.Identifier) (int, error) {
	var segno int
	err := k.gate(cpu, ModDir, func() error {
		grant, err := k.Dirs.Initiate(directory.Principal(p.Principal()), p.Label(), id)
		if err != nil {
			return err
		}
		segno, err = k.KSM.MakeKnown(p.KST(), knownseg.Entry{
			UID: grant.UID, Addr: grant.Addr,
			Cell: grant.Cell, HasCell: grant.HasCell,
			Access: grant.Access, MaxRing: hw.UserRing, WriteRing: hw.UserRing,
		})
		return err
	})
	return segno, err
}

// OpenPath walks a path in the user ring and opens the result.
func (k *Kernel) OpenPath(cpu *hw.Processor, p *uproc.Process, path []string) (int, error) {
	id, err := k.WalkPath(cpu, p, path)
	if err != nil {
		return 0, err
	}
	return k.Open(cpu, p, id)
}

// CreateFile creates a file entry under the directory named by path.
func (k *Kernel) CreateFile(cpu *hw.Processor, p *uproc.Process, dirPath []string, name string, acl directory.ACL, label aim.Label) (directory.Identifier, error) {
	dirID, err := k.WalkPath(cpu, p, dirPath)
	if err != nil {
		return 0, err
	}
	var id directory.Identifier
	err = k.gate(cpu, ModDir, func() error {
		var err error
		id, err = k.Dirs.Create(directory.Principal(p.Principal()), p.Label(), dirID, name, false, acl, label)
		return err
	})
	return id, err
}

// CreateDir creates a directory entry under the directory named by
// path.
func (k *Kernel) CreateDir(cpu *hw.Processor, p *uproc.Process, dirPath []string, name string, acl directory.ACL, label aim.Label) (directory.Identifier, error) {
	dirID, err := k.WalkPath(cpu, p, dirPath)
	if err != nil {
		return 0, err
	}
	var id directory.Identifier
	err = k.gate(cpu, ModDir, func() error {
		var err error
		id, err = k.Dirs.Create(directory.Principal(p.Principal()), p.Label(), dirID, name, true, acl, label)
		return err
	})
	return id, err
}

// SetACL replaces the ACL of the object named by id.
func (k *Kernel) SetACL(cpu *hw.Processor, p *uproc.Process, id directory.Identifier, acl directory.ACL) error {
	return k.gate(cpu, ModDir, func() error {
		return k.Dirs.SetACL(directory.Principal(p.Principal()), p.Label(), id, acl)
	})
}

// Rename changes an entry's name within the directory named by
// dirPath.
func (k *Kernel) Rename(cpu *hw.Processor, p *uproc.Process, dirPath []string, oldName, newName string) error {
	dirID, err := k.WalkPath(cpu, p, dirPath)
	if err != nil {
		return err
	}
	return k.gate(cpu, ModDir, func() error {
		return k.Dirs.Rename(directory.Principal(p.Principal()), p.Label(), dirID, oldName, newName)
	})
}

// Delete removes the named entry from the directory named by dirPath,
// destroying its segment and returning its records and quota. The
// caller must not reference the segment afterwards: any stale binding
// faults and the missing-segment service reports the object gone.
func (k *Kernel) Delete(cpu *hw.Processor, p *uproc.Process, dirPath []string, name string) error {
	dirID, err := k.WalkPath(cpu, p, dirPath)
	if err != nil {
		return err
	}
	return k.gate(cpu, ModDir, func() error {
		return k.Dirs.Delete(directory.Principal(p.Principal()), p.Label(), dirID, name)
	})
}

// Truncate discards the pages of an opened segment at or beyond
// newPages, releasing their storage and quota. The caller needs write
// access to the segment.
func (k *Kernel) Truncate(cpu *hw.Processor, p *uproc.Process, segno, newPages int) error {
	return k.gate(cpu, ModSegment, func() error {
		e, err := p.KST().Entry(segno)
		if err != nil {
			return err
		}
		if !e.Access.Has(hw.Write) {
			return directory.ErrNoAccess
		}
		if _, err := k.Segs.Lookup(e.UID); err != nil {
			// Not active: activate through the standard machinery
			// so truncation can proceed. A processor that activated
			// it first leaves it active all the same.
			if _, err := k.Segs.Activate(e.UID, e.Addr, e.Cell, e.HasCell); err != nil && !errors.Is(err, segment.ErrAlreadyActive) {
				return err
			}
		}
		return k.Segs.Truncate(e.UID, newPages)
	})
}

// DesignateQuota makes the (childless) directory named by id a quota
// directory.
func (k *Kernel) DesignateQuota(cpu *hw.Processor, p *uproc.Process, id directory.Identifier, limit int) error {
	return k.gate(cpu, ModDir, func() error {
		return k.Dirs.DesignateQuota(directory.Principal(p.Principal()), p.Label(), id, limit)
	})
}

// Read performs a user-mode load with full fault handling.
func (k *Kernel) Read(cpu *hw.Processor, p *uproc.Process, segno, off int) (hw.Word, error) {
	return k.access(cpu, p, segno, off, false, 0)
}

// Write performs a user-mode store with full fault handling.
func (k *Kernel) Write(cpu *hw.Processor, p *uproc.Process, segno, off int, w hw.Word) error {
	_, err := k.access(cpu, p, segno, off, true, w)
	return err
}

// access is the reference-retry loop: issue the reference, let the
// hardware fault, handle the fault in ring zero, dispatch any upward
// signals after the handling chain unwinds, and rereference.
func (k *Kernel) access(cpu *hw.Processor, p *uproc.Process, segno, off int, write bool, w hw.Word) (hw.Word, error) {
	// The cap exists to turn a service that genuinely cannot make
	// progress into an error rather than a hang. It is generous
	// because heavy multiprocessor paging can legitimately evict a
	// just-fetched page before the faulter rereferences, several
	// times in a row, without anything being wrong.
	const maxFaults = 256
	for tries := 0; tries < maxFaults; tries++ {
		if tries == maxFaults/2 {
			// Halfway through the budget this reference is being
			// starved — evictions keep taking its page back before the
			// rereference. Record it now, while the run can still be
			// diagnosed, rather than failing silently at exhaustion.
			k.retryPressure.Add(1)
			if k.Trace != nil {
				k.Trace.Emit(trace.Event{
					Kind: trace.EvRetryPressure, Module: ModUProc,
					Arg0: int64(segno), Arg1: int64(off), Arg2: int64(tries),
				})
			}
		}
		// The fault comes back by value and lives only until handleFault
		// returns: taking one allocates nothing.
		val, f, faulted, err := cpu.Reference(segno, off, write, w)
		if err != nil {
			return 0, err
		}
		if !faulted {
			return val, nil
		}
		if herr := k.handleFault(cpu, p, f); herr != nil {
			return 0, herr
		}
		// The faulting call chain has unwound; run any upward
		// signals (relocation notices) and daemon work.
		if derr := k.dispatchSignals(); derr != nil {
			return 0, derr
		}
		k.VProcs.RunPending()
	}
	k.retryExhausted.Add(1)
	return 0, fmt.Errorf("%w: segment %d offset %d after %d fault services", ErrRetryBudget, segno, off, maxFaults)
}

// dispatchSignals runs pending upward signals under the kernel's gate
// lock, so that a relocation handler's walk down from the directory
// manager holds the top-ranked lock while it acquires module locks
// below — the acquisition order the rank checker certifies. The
// pending check keeps the common no-signal rereference from
// serializing the processors.
func (k *Kernel) dispatchSignals() error {
	if k.Signals.Pending() == 0 {
		return nil
	}
	k.gateLock.Lock()
	defer k.gateLock.Unlock()
	_, err := k.Signals.Dispatch()
	return err
}

// vanished filters the error of a page or quota fault's service on
// segment number segno of p: a segment that left the active segment
// table after the fault (deactivated, or deleted) was disconnected
// first, so the rereference takes a missing-segment fault, which
// activates it again or reports it gone.
func vanished(p *uproc.Process, segno int, err error) error {
	if !errors.Is(err, segment.ErrNotActive) {
		return err
	}
	if sdw, derr := p.DT().Get(segno); derr == nil && !sdw.Present {
		return nil
	}
	return err
}

// handleFault maps one hardware exception to the manager that owns it.
// A violation goes back to the caller as a boxed copy of the fault.
func (k *Kernel) handleFault(cpu *hw.Processor, p *uproc.Process, f hw.Fault) error {
	switch f.Kind {
	case hw.FaultMissingSegment:
		return k.gate(cpu, ModKnownSeg, func() error {
			return k.KSM.ServiceMissingSegment(p.KST(), p.DT(), f.Seg)
		})
	case hw.FaultMissingPage:
		// With descriptor-lock hardware the faulting processor set
		// the lock bit and owns the service; a processor that lost
		// the race would have seen FaultLockedDescriptor instead.
		return vanished(p, f.Seg, k.gate(cpu, ModKnownSeg, func() error {
			return k.KSM.ServiceMissingPage(p.KST(), f.Seg, f.Page)
		}))
	case hw.FaultLockedDescriptor:
		sdw, err := p.DT().Get(f.Seg)
		if err != nil || !sdw.Present || sdw.Table == nil {
			// The segment vanished under us (relocation); the
			// rereference will take a missing-segment fault.
			return nil
		}
		return k.gate(cpu, ModFrame, func() error {
			return k.Frames.WaitUnlock(cpu, sdw.Table, f.Page)
		})
	case hw.FaultQuota:
		return vanished(p, f.Seg, k.gate(cpu, ModKnownSeg, func() error {
			return k.KSM.ServiceQuotaFault(p.KST(), f.Seg, f.Page, p.ID())
		}))
	default:
		// Access, bounds and gate violations belong to the caller.
		return f.Err()
	}
}
