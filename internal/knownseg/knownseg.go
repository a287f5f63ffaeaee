// Package knownseg implements the known segment manager: the
// per-process tables (KSTs) that bind segment numbers to segment
// unique identifiers, and the fault services that sit just above the
// segment manager.
//
// The known segment manager is where hardware quota exceptions arrive:
// the exception reports a segment number and page number, the manager
// translates the segment number to a unique identifier, and it invokes
// the segment manager to find the appropriate quota directory, check
// the limit, and add the page. When the downward call chain comes
// back with an unsuspected full-pack exception already handled by
// relocation, the manager transfers the new pack identifier and
// table-of-contents index — plus the saved user process state — to the
// directory manager with an upward signal, leaving no activation
// records behind.
//
// When a process first makes a segment known, the directory manager
// (above) supplies the identity of the appropriate superior quota
// directory; the static binding travels down through activation, and
// no upward hierarchy search ever happens below this level.
package knownseg

import (
	"errors"
	"fmt"

	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/lockrank"
	"multics/internal/quota"
	"multics/internal/schedsim"
	"multics/internal/segment"
	"multics/internal/upsignal"
)

// ModuleName is this manager's name in the kernel dependency graph.
// The manager's own lock takes the layer's high sub-rank and every
// per-process KST lock the low one, so a KST may be locked while the
// manager lock is held but never the other way round.
const ModuleName = "known-segment-manager"

// RelocationTarget is the upward-signal target name of the directory
// manager's relocation handler.
const RelocationTarget = "directory-manager"

// A RelocationNotice is the upward-signal payload after a full-pack
// relocation: the directory manager must record the segment's new disk
// address in its directory entry and restore the user process state.
type RelocationNotice struct {
	UID     uint64
	NewAddr disk.SegAddr
	// SavedState is the user process state captured just before the
	// original quota exception; the directory manager restores it
	// after updating the entry so the process rereferences the
	// segment.
	SavedState any
}

// ErrKSTFull is returned when a process's known segment table has no
// free segment number.
var ErrKSTFull = errors.New("knownseg: known segment table full")

// ErrUnknown is returned for a segment number with no KST entry.
var ErrUnknown = errors.New("knownseg: segment number not known")

// An Entry is one known-segment-table entry: what a process knows
// about one segment number.
type Entry struct {
	Segno   int
	UID     uint64
	Addr    disk.SegAddr
	Cell    quota.CellName
	HasCell bool
	// Access and rings record what the directory manager granted at
	// initiate time; connections are built with exactly these.
	Access    hw.AccessMode
	MaxRing   int
	WriteRing int
}

// A KST is one process's known segment table.
type KST struct {
	mu      lockrank.Mutex
	base    int
	entries []*Entry
	byUID   map[uint64]int
	// pos is the table's index in the manager's list of live tables,
	// under the manager lock; -1 once dropped.
	pos int
}

// Base reports the first user segment number.
func (k *KST) Base() int { return k.base }

// Capacity reports the fixed number of segment numbers.
func (k *KST) Capacity() int { return len(k.entries) }

// Known reports the number of live entries.
func (k *KST) Known() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.byUID)
}

// Entry returns a copy of the entry for segno.
func (k *KST) Entry(segno int) (Entry, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := segno - k.base
	if i < 0 || i >= len(k.entries) || k.entries[i] == nil {
		return Entry{}, fmt.Errorf("%w: %d", ErrUnknown, segno)
	}
	return *k.entries[i], nil
}

// Each calls fn for every live entry.
func (k *KST) Each(fn func(Entry)) {
	k.mu.Lock()
	entries := make([]Entry, 0, len(k.byUID))
	for _, e := range k.entries {
		if e != nil {
			entries = append(entries, *e)
		}
	}
	k.mu.Unlock()
	for _, e := range entries {
		fn(e)
	}
}

// Audit checks every known segment table's invariant: the segment
// number index and the uid index are a bijection, and the table knows
// its own position in the manager's list.
func (m *Manager) Audit() []string {
	var bad []string
	m.mu.Lock()
	ksts := append([]*KST(nil), m.ksts...)
	for ki, k := range ksts {
		if k.pos != ki {
			bad = append(bad, fmt.Sprintf("KST %d records list position %d", ki, k.pos))
		}
	}
	m.mu.Unlock()
	for ki, k := range ksts {
		k.mu.Lock()
		for uid, i := range k.byUID {
			if i < 0 || i >= len(k.entries) || k.entries[i] == nil {
				bad = append(bad, fmt.Sprintf("KST %d: uid %d indexes empty slot %d", ki, uid, i))
				continue
			}
			if k.entries[i].UID != uid {
				bad = append(bad, fmt.Sprintf("KST %d: uid %d indexes slot holding %d", ki, uid, k.entries[i].UID))
			}
		}
		for i, e := range k.entries {
			if e == nil {
				continue
			}
			if j, ok := k.byUID[e.UID]; !ok || j != i {
				bad = append(bad, fmt.Sprintf("KST %d: slot %d (uid %d) not indexed", ki, i, e.UID))
			}
			if e.Segno != k.base+i {
				bad = append(bad, fmt.Sprintf("KST %d: slot %d records segno %d, want %d", ki, i, e.Segno, k.base+i))
			}
		}
		k.mu.Unlock()
	}
	return bad
}

// A Manager owns every process's KST and provides the fault services.
type Manager struct {
	segs    *segment.Manager
	signals *upsignal.Dispatcher
	meter   *hw.CostMeter

	mu   lockrank.Mutex
	ksts []*KST
}

// NewManager returns a known segment manager over the given segment
// manager and upward-signal dispatcher.
func NewManager(segs *segment.Manager, signals *upsignal.Dispatcher, meter *hw.CostMeter) *Manager {
	m := &Manager{segs: segs, signals: signals, meter: meter}
	m.mu.InitSub(ModuleName, 1)
	return m
}

// NewKST creates a process's known segment table covering segment
// numbers [base, base+capacity).
func (m *Manager) NewKST(base, capacity int) (*KST, error) {
	if base < 0 || capacity <= 0 {
		return nil, fmt.Errorf("knownseg: KST base %d capacity %d", base, capacity)
	}
	k := &KST{base: base, entries: make([]*Entry, capacity), byUID: make(map[uint64]int)}
	k.mu.InitSub(ModuleName, 0)
	m.mu.Lock()
	defer m.mu.Unlock()
	k.pos = len(m.ksts)
	m.ksts = append(m.ksts, k)
	return k, nil
}

// DropKST forgets a process's table (process destruction). The last
// table moves into the dropped one's place, so the cost does not grow
// with the number of processes.
func (m *Manager) DropKST(k *KST) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := k.pos
	if i < 0 || i >= len(m.ksts) || m.ksts[i] != k {
		return
	}
	last := len(m.ksts) - 1
	m.ksts[i] = m.ksts[last]
	m.ksts[i].pos = i
	m.ksts[last] = nil
	m.ksts = m.ksts[:last]
	k.pos = -1
}

// MakeKnown binds a segment into the process's address space, using
// the quota-cell identity and access the directory manager resolved.
// If the segment is already known the existing segment number is
// returned.
func (m *Manager) MakeKnown(k *KST, e Entry) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if i, ok := k.byUID[e.UID]; ok {
		return k.base + i, nil
	}
	for i, slot := range k.entries {
		if slot == nil {
			cp := e
			cp.Segno = k.base + i
			k.entries[i] = &cp
			k.byUID[e.UID] = i
			return cp.Segno, nil
		}
	}
	return 0, ErrKSTFull
}

// Terminate unbinds a segment number from the process. The caller is
// responsible for clearing the descriptor.
func (m *Manager) Terminate(k *KST, segno int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := segno - k.base
	if i < 0 || i >= len(k.entries) || k.entries[i] == nil {
		return fmt.Errorf("%w: %d", ErrUnknown, segno)
	}
	delete(k.byUID, k.entries[i].UID)
	k.entries[i] = nil
	return nil
}

// UpdateAddr records a segment's new disk address in every KST that
// knows it. The directory manager calls this — a downward call — as
// part of handling a relocation notice.
func (m *Manager) UpdateAddr(uid uint64, addr disk.SegAddr) {
	m.mu.Lock()
	ksts := append([]*KST(nil), m.ksts...)
	m.mu.Unlock()
	for _, k := range ksts {
		k.mu.Lock()
		if i, ok := k.byUID[uid]; ok {
			k.entries[i].Addr = addr
		}
		k.mu.Unlock()
	}
}

// UpdateCell renames a quota cell in every KST entry bound to it,
// after the cell's quota directory moved packs.
func (m *Manager) UpdateCell(old, new quota.CellName) {
	m.mu.Lock()
	ksts := append([]*KST(nil), m.ksts...)
	m.mu.Unlock()
	for _, k := range ksts {
		k.mu.Lock()
		for _, e := range k.entries {
			if e != nil && e.HasCell && e.Cell == old {
				e.Cell = new
			}
		}
		k.mu.Unlock()
	}
}

// ServiceMissingSegment is the standard machinery for missing-segment
// faults: it activates the segment if necessary and connects it to the
// faulting process's descriptor table with the access recorded at
// initiate time.
func (m *Manager) ServiceMissingSegment(k *KST, dt *hw.DescriptorTable, segno int) error {
	e, err := k.Entry(segno)
	if err != nil {
		return err
	}
	if _, err := m.segs.Lookup(e.UID); errors.Is(err, segment.ErrNotActive) {
		// Another processor may activate it between the lookup and
		// here; the segment is then active all the same.
		if _, err := m.segs.Activate(e.UID, e.Addr, e.Cell, e.HasCell); err != nil && !errors.Is(err, segment.ErrAlreadyActive) {
			return err
		}
	} else if err != nil {
		return err
	}
	return m.segs.Connect(e.UID, dt, segno, e.Access, e.MaxRing, e.WriteRing)
}

// ServiceMissingPage translates the faulting segment number and calls
// the segment manager to bring the page in.
func (m *Manager) ServiceMissingPage(k *KST, segno, page int) error {
	e, err := k.Entry(segno)
	if err != nil {
		return err
	}
	return m.segs.ServiceMissingPage(e.UID, page, segno, page)
}

// ServiceQuotaFault handles the hardware quota exception: the first
// touch of a never-before-used (or zero) page. It translates the
// segment number, initiates the downward chain through the segment,
// quota cell and page frame managers, and — when the chain reports
// that a full pack forced a relocation — raises the upward signal that
// hands the directory manager the new address together with the saved
// process state. The raiser keeps nothing on its stack: the caller's
// dispatch loop runs the handler after this call unwinds.
func (m *Manager) ServiceQuotaFault(k *KST, segno, page int, savedState any) error {
	e, err := k.Entry(segno)
	if err != nil {
		return err
	}
	newAddr, err := m.segs.Grow(e.UID, page, segno, page)
	if errors.Is(err, segment.ErrGrowRace) {
		// Lost the race with a zero-page reclaim mid-flight on
		// another processor. Nothing was charged or allocated;
		// returning success makes the caller rereference, which
		// faults again once the reclaim has finished. The marked
		// yield lets schedule sweeps hand the token back to the
		// reclaiming task here, driving the retry to its resolution
		// instead of spinning against a parked peer.
		schedsim.Yield(schedsim.PointMark, "grow-race-retry")
		return nil
	}
	if err != nil {
		return err
	}
	if newAddr != nil {
		k.mu.Lock()
		if i, ok := k.byUID[e.UID]; ok {
			k.entries[i].Addr = *newAddr
		}
		k.mu.Unlock()
		return m.signals.Raise(upsignal.Signal{
			Target: RelocationTarget,
			Args:   RelocationNotice{UID: e.UID, NewAddr: *newAddr, SavedState: savedState},
		})
	}
	return nil
}
