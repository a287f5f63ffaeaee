package hw

import "fmt"

// FaultKind identifies a hardware exception.
type FaultKind int

const (
	// FaultMissingSegment: the referenced segment number has no
	// usable descriptor (directed fault on the SDW).
	FaultMissingSegment FaultKind = iota
	// FaultMissingPage: the page descriptor indicates the page is
	// not in primary memory. On a processor with the descriptor-lock
	// addition the hardware sets the lock bit before faulting, and
	// the faulting processor is the one that must service the fault.
	FaultMissingPage
	// FaultLockedDescriptor: the page descriptor's lock bit was
	// already set -- another processor is servicing a fault on this
	// page. The handler should wait for the unlock notification.
	FaultLockedDescriptor
	// FaultQuota: the exception-causing bit was set on the page
	// descriptor -- a never-before-used page is being referenced, so
	// the segment must grow and quota must be checked above page
	// control.
	FaultQuota
	// FaultAccess: the reference violates the access modes or ring
	// brackets in the segment descriptor.
	FaultAccess
	// FaultBounds: the word offset lies beyond the segment's
	// current bound.
	FaultBounds
	// FaultGate: a cross-ring transfer did not enter through a gate.
	FaultGate

	// NumFaultKinds is the size of per-kind arrays.
	NumFaultKinds = int(FaultGate) + 1
)

var faultNames = map[FaultKind]string{
	FaultMissingSegment:   "missing-segment",
	FaultMissingPage:      "missing-page",
	FaultLockedDescriptor: "locked-descriptor",
	FaultQuota:            "quota",
	FaultAccess:           "access-violation",
	FaultBounds:           "bounds-violation",
	FaultGate:             "gate-violation",
}

func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// A Fault describes one hardware exception: what happened and the
// virtual address whose translation caused it. It satisfies error so
// translation paths can return it directly.
type Fault struct {
	Kind FaultKind
	// Seg and Offset are the faulting virtual address; Page is the
	// page number within the segment.
	Seg    int
	Offset int
	Page   int
	// Write reports whether the faulting reference was a store.
	Write bool
	// Ring is the validation ring of the faulting reference.
	Ring int
	// Locked reports that this processor's missing-page fault also
	// set the descriptor lock bit (descriptor-lock hardware), making
	// this processor responsible for servicing the fault.
	Locked bool
}

func (f *Fault) Error() string {
	return fmt.Sprintf("hw: %v fault at segment %d offset %d (page %d, ring %d)", f.Kind, f.Seg, f.Offset, f.Page, f.Ring)
}

// Err boxes a copy of f as an error, for a caller that hands the fault
// on rather than servicing it. The copy belongs to the caller. It is
// made with new, not &f, so that where Err is inlined only the boxing
// branch allocates, not every caller's fault variable.
func (f Fault) Err() error {
	boxed := new(Fault)
	*boxed = f
	return boxed
}
