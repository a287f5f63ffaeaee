// Package segment implements the segment manager and its active
// segment table (AST).
//
// A segment object is a growable array of pages whose permanent home
// is a table-of-contents entry on one disk pack. The manager
// activates segments (builds their page tables and enters them in the
// AST), services their missing-page and growth faults by calling down
// to the quota cell and page frame managers, and deactivates them.
//
// Two structural properties distinguish this design from the 1974
// supervisor, both taken from the paper:
//
//   - The governing quota cell of a segment is bound statically at
//     activation: the caller (the known segment manager, which learned
//     it from the directory manager) presents the cell's name, and the
//     segment manager simply forwards it to the quota cell manager
//     when quota must be checked. No upward search of the directory
//     hierarchy happens here, so the AST is free of the hierarchy's
//     shape and segments can be activated and deactivated in any
//     order.
//
//   - A full-pack exception from the page frame manager is handled by
//     relocation: the manager disconnects every address space from the
//     segment, moves it to the emptiest pack, and returns the new pack
//     identifier and table-of-contents index up the call chain so the
//     directory manager (reached by upward signal, above us) can
//     update the directory entry.
package segment

import (
	"errors"
	"fmt"
	"runtime"

	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/lockrank"
	"multics/internal/pageframe"
	"multics/internal/quota"
	"multics/internal/schedsim"
)

// ModuleName is this manager's name in the kernel dependency graph;
// its lock ranks at the active-segment layer of the lattice.
const ModuleName = "active-segment-manager"

// MaxPages is the architectural maximum segment length in pages
// (256K words).
const MaxPages = 256

// ASTEWords is the size of one active-segment-table entry in the AST
// core segment.
const ASTEWords = 8

// ErrASTFull is returned when the fixed active segment table has no
// free entry.
var ErrASTFull = errors.New("segment: active segment table full")

// ErrNotActive is returned for operations on a segment that is not in
// the active segment table.
var ErrNotActive = errors.New("segment: not active")

// ErrAlreadyActive is returned by Activate when the segment is already
// in the active segment table. Two processors that take a
// missing-segment fault together both find the segment inactive, and
// the loser of the activation gets this error: the segment it wanted
// is active, so it goes on as if it had activated it.
var ErrAlreadyActive = errors.New("segment: already active")

// ErrNoQuotaCell is returned when a segment with no governing quota
// cell tries to grow.
var ErrNoQuotaCell = errors.New("segment: no governing quota cell")

// ErrGrowRace is returned when a quota-fault service observes a page
// that the file map still calls stored. That is the window of a
// zero-page reclaim on another processor: the trap bit goes onto the
// page descriptor first and the record is freed a moment later, so a
// reference that faults in between sees the trap with a stale map.
// The service should simply retry the reference; by the time it
// faults again the reclaim has finished and the growth path applies.
var ErrGrowRace = errors.New("segment: page mid-reclaim")

// A CellRef names an optional governing quota cell, for callers that
// carry the binding around before activation. UID is the unique
// identifier of the quota directory owning the cell; it is recorded
// on disk in the table-of-contents entries of governed segments so
// the volume salvager can recompute used-counts.
type CellRef struct {
	Cell quota.CellName
	UID  uint64
	Has  bool
}

// A Conn records one address-space connection to an active segment.
type Conn struct {
	DT    *hw.DescriptorTable
	Segno int
}

// An ASTE is one active-segment-table entry.
type ASTE struct {
	uid     uint64
	addr    disk.SegAddr
	pt      *hw.PageTable
	cell    quota.CellName
	hasCell bool
	dir     bool
	slot    int
	mapLen  int
	conns   []Conn
	// lastFault remembers the previous missing-page fault's page
	// number (protected by the manager lock): a fault on the very
	// next page is a sequential pattern and opens the read-ahead
	// window. Initialized to -2 so page 0 alone never looks
	// sequential.
	lastFault int
}

// UID returns the segment's unique identifier.
func (a *ASTE) UID() uint64 { return a.uid }

// Addr returns the segment's current disk address.
func (a *ASTE) Addr() disk.SegAddr { return a.addr }

// PageTable returns the segment's page table.
func (a *ASTE) PageTable() *hw.PageTable { return a.pt }

// Dir reports whether the segment holds a directory.
func (a *ASTE) Dir() bool { return a.dir }

// QuotaCell returns the statically bound governing quota cell.
func (a *ASTE) QuotaCell() (quota.CellName, bool) { return a.cell, a.hasCell }

// Pages reports the current length of the segment's file map in
// pages (the page table itself always spans the architectural
// maximum).
func (a *ASTE) Pages() int { return a.mapLen }

// astStore is the interface the AST needs from its core segment; it
// matches *coreseg.Segment.
type astStore interface {
	Words() int
	Write(off int, w hw.Word) error
}

// A Manager is the segment manager.
type Manager struct {
	vols   *disk.Volumes
	frames *pageframe.Manager
	cells  *quota.Manager
	ast    astStore
	meter  *hw.CostMeter

	// Bus broadcasts associative-memory shootdowns when a segment
	// descriptor is installed or severed; a nil bus does nothing.
	Bus *hw.ShootdownBus

	mu      lockrank.Mutex
	byUID   map[uint64]*ASTE
	slots   []bool
	nextUID uint64
	// spreadNext is the round-robin position of SpreadPack's
	// rotation over the mounted packs.
	spreadNext int
}

// ReadAheadWindow is how many stored pages beyond a sequential fault
// the segment manager names for speculative reading. The window stops
// early at the first non-stored page: zero and never-used pages take
// the quota path, not the disk.
const ReadAheadWindow = 4

// SpreadPack returns the next pack of a round-robin rotation over the
// mounted packs. Multi-pack configurations use it to place new files:
// Volumes.Emptiest breaks its ties lexicographically, so a burst of
// empty files would otherwise all land on the first pack and their
// faults would serialize behind one device arm.
func (m *Manager) SpreadPack() string {
	ids := m.vols.Packs()
	if len(ids) == 0 {
		return ""
	}
	m.mu.Lock()
	id := ids[m.spreadNext%len(ids)]
	m.spreadNext++
	m.mu.Unlock()
	return id
}

// NewManager returns a segment manager whose active segment table
// lives in the core segment ast.
func NewManager(vols *disk.Volumes, frames *pageframe.Manager, cells *quota.Manager, ast astStore, meter *hw.CostMeter) (*Manager, error) {
	if ast == nil || ast.Words() < ASTEWords {
		return nil, errors.New("segment: AST core segment too small")
	}
	m := &Manager{
		vols:    vols,
		frames:  frames,
		cells:   cells,
		ast:     ast,
		meter:   meter,
		byUID:   make(map[uint64]*ASTE),
		slots:   make([]bool, ast.Words()/ASTEWords),
		nextUID: 1,
	}
	m.mu.Init(ModuleName)
	return m, nil
}

// Capacity reports the fixed number of AST entries.
func (m *Manager) Capacity() int { return len(m.slots) }

// ActiveCount reports the number of active segments.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byUID)
}

// NewUID issues a fresh segment unique identifier.
func (m *Manager) NewUID() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	uid := m.nextUID
	m.nextUID++
	return uid
}

// Create makes a new, empty segment on the named pack and returns its
// disk address. gov names, by unique identifier, the quota directory
// whose cell will be charged for the segment's pages (zero for a
// segment that never grows); it is recorded in the table-of-contents
// entry so storage accounting stays recomputable after a crash.
func (m *Manager) Create(packID string, uid uint64, dir bool, gov uint64) (disk.SegAddr, error) {
	pack, err := m.vols.Pack(packID)
	if err != nil {
		return disk.SegAddr{}, err
	}
	idx, err := pack.CreateEntry(uid, dir, gov)
	if err != nil {
		return disk.SegAddr{}, fmt.Errorf("segment: creating %d on pack %s: %w", uid, packID, err)
	}
	return disk.SegAddr{Pack: packID, TOC: idx}, nil
}

// SetGov rebinds the on-disk governing-cell record of the entry at
// addr. The directory manager calls it when a quota designation (or
// its removal) changes which cell a directory's own pages charge.
func (m *Manager) SetGov(addr disk.SegAddr, gov uint64) error {
	pack, err := m.vols.Pack(addr.Pack)
	if err != nil {
		return err
	}
	return pack.UpdateEntry(addr.TOC, func(e *disk.TOCEntry) error {
		e.Gov = gov
		return nil
	})
}

// Activate enters the segment at addr into the active segment table,
// building its page table from the file map. cell names the governing
// quota cell the caller bound statically; hasCell is false only for
// segments that must never grow. If the segment is itself a quota
// directory, its cell is presented to the quota cell manager.
//
// Unlike the 1974 design, activation has no hierarchy constraints:
// any segment can be activated or deactivated regardless of the state
// of its directory's superiors or inferiors.
func (m *Manager) Activate(uid uint64, addr disk.SegAddr, cell quota.CellName, hasCell bool) (*ASTE, error) {
	pack, err := m.vols.Pack(addr.Pack)
	if err != nil {
		return nil, err
	}
	e, err := pack.Entry(addr.TOC)
	if err != nil {
		return nil, err
	}
	if e.UID != uid {
		return nil, fmt.Errorf("segment: %v holds segment %d, not %d", addr, e.UID, uid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byUID[uid]; ok {
		return nil, fmt.Errorf("%w: segment %d", ErrAlreadyActive, uid)
	}
	slot := -1
	for i, taken := range m.slots {
		if !taken {
			slot = i
			break
		}
	}
	if slot < 0 {
		return nil, ErrASTFull
	}
	// The page table spans the architectural maximum: every page
	// beyond the file map (and every zero or unallocated page within
	// it) carries the exception-causing bit, so its first touch
	// raises a quota fault above page control instead of a plain
	// missing-page fault. Stored pages fault missing-page.
	ptws := make([]hw.PTW, MaxPages)
	for i := range ptws {
		ptws[i].QuotaTrap = i >= len(e.Map) || e.Map[i].State != disk.PageStored
	}
	pt := hw.NewPageTableOf(ptws, false)
	a := &ASTE{uid: uid, addr: addr, pt: pt, cell: cell, hasCell: hasCell, dir: e.Dir, slot: slot, mapLen: len(e.Map), lastFault: -2}
	m.slots[slot] = true
	m.byUID[uid] = a
	_ = m.ast.Write(slot*ASTEWords, hw.Word(uid).Masked())
	// A quota directory's own cell is presented to the quota cell
	// manager on activation.
	if e.Dir && e.Quota.Valid && !m.cells.Active(addr) {
		if err := m.cells.Activate(addr); err != nil {
			delete(m.byUID, uid)
			m.slots[slot] = false
			return nil, err
		}
	}
	return a, nil
}

// Lookup returns the AST entry for uid.
func (m *Manager) Lookup(uid uint64) (*ASTE, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byUID[uid]
	if !ok {
		return nil, fmt.Errorf("%w: segment %d", ErrNotActive, uid)
	}
	return a, nil
}

// ensureCell lazily loads a quota cell into the primary-memory table.
// Because cells live in table-of-contents entries, not in directory
// segments, charging needs no directory to be active — the property
// that frees deactivation from the hierarchy's shape.
func (m *Manager) ensureCell(cell quota.CellName) error {
	if m.cells.Active(cell) {
		return nil
	}
	return m.cells.Activate(cell)
}

// Connect installs the segment in an address space at segment number
// segno with the given access, and records the connection so
// relocation can sever it.
func (m *Manager) Connect(uid uint64, dt *hw.DescriptorTable, segno int, access hw.AccessMode, maxRing, writeRing int) error {
	a, err := m.Lookup(uid)
	if err != nil {
		return err
	}
	if err := dt.Set(segno, hw.SDW{
		Present: true, Table: a.pt, Access: access,
		MaxRing: maxRing, WriteRing: writeRing,
	}); err != nil {
		return err
	}
	// A stale cached descriptor for this segment number (a previous
	// connection) must not outlive the new one.
	m.Bus.InvalidateSDW(ModuleName, dt, segno)
	m.mu.Lock()
	defer m.mu.Unlock()
	a.conns = append(a.conns, Conn{DT: dt, Segno: segno})
	return nil
}

// Disconnect severs every address-space connection to the segment;
// subsequent references take missing-segment faults and reconnect via
// the standard machinery.
func (m *Manager) Disconnect(uid uint64) error {
	a, err := m.Lookup(uid)
	if err != nil {
		return err
	}
	m.mu.Lock()
	conns := a.conns
	a.conns = nil
	m.mu.Unlock()
	for _, c := range conns {
		if err := c.DT.Clear(c.Segno); err != nil {
			return err
		}
		// No processor may keep translating through the severed
		// descriptor: broadcast before the caller goes on to move
		// or destroy the segment's pages.
		m.Bus.InvalidateSDW(ModuleName, c.DT, c.Segno)
	}
	return nil
}

// Connections reports the number of live address-space connections.
func (m *Manager) Connections(uid uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byUID[uid]
	if !ok {
		return 0
	}
	return len(a.conns)
}

// ServiceMissingPage brings a stored page into primary memory: the
// missing-page fault path. notifySeg/notifyPage name the faulting
// descriptor address for waiter notification.
func (m *Manager) ServiceMissingPage(uid uint64, page, notifySeg, notifyPage int) error {
	a, err := m.Lookup(uid)
	if err != nil {
		return err
	}
	pack, err := m.vols.Pack(a.addr.Pack)
	if err != nil {
		return err
	}
	// The faulting page's entry and the read-ahead window behind it.
	var window [1 + ReadAheadWindow]disk.FileMapEntry
	n, mapLen, err := pack.MapEntries(a.addr.TOC, page, window[:])
	if err != nil {
		return err
	}
	if page < 0 || page >= mapLen {
		return fmt.Errorf("segment: page %d outside file map of %d pages", page, mapLen)
	}
	fm := window[0]
	if fm.State != disk.PageStored {
		return fmt.Errorf("segment: page %d of %d is %v, not stored; growth must take the quota path", page, uid, fm.State)
	}
	// A fault on the page right after this segment's previous fault
	// is a sequential pattern: name the next stored pages (up to the
	// window, stopping at the first hole) for speculative reads on
	// the pack's elevator queue.
	m.mu.Lock()
	seq := a.lastFault == page-1
	a.lastFault = page
	m.mu.Unlock()
	var ahead []pageframe.ReadAheadPage
	if seq && n > 1 {
		ahead = make([]pageframe.ReadAheadPage, 0, n-1)
		for i := 1; i < n; i++ {
			if window[i].State != disk.PageStored {
				break
			}
			ahead = append(ahead, pageframe.ReadAheadPage{Page: page + i, Record: window[i].Record})
		}
	}
	ev, err := m.frames.LoadPage(pageframe.PageReq{
		UID: uid, PT: a.pt, Page: page,
		Pack: pack, Record: fm.Record, HasRecord: true,
		NotifySeg: notifySeg, NotifyPage: notifyPage,
		ReadAhead: ahead,
	})
	if err2 := m.applyEvictions(ev); err2 != nil && err == nil {
		err = err2
	}
	return err
}

// Grow services a quota fault: the first touch of a never-before-used
// or zero page. It charges the governing quota cell, then calls the
// page frame manager to add the page. When the pack is full the
// segment is relocated to the emptiest pack and the new disk address
// is returned (non-nil) so the caller can signal the directory manager
// to update the directory entry; the grown page is retried on the new
// pack.
func (m *Manager) Grow(uid uint64, page, notifySeg, notifyPage int) (*disk.SegAddr, error) {
	a, err := m.Lookup(uid)
	if err != nil {
		return nil, err
	}
	if page < 0 || page >= MaxPages {
		return nil, fmt.Errorf("segment: page %d beyond architectural maximum %d", page, MaxPages)
	}
	if !a.hasCell {
		return nil, fmt.Errorf("%w: segment %d", ErrNoQuotaCell, uid)
	}
	if err := m.ensureCell(a.cell); err != nil {
		return nil, err
	}
	pack, err := m.vols.Pack(a.addr.Pack)
	if err != nil {
		return nil, err
	}
	e, err := pack.Entry(a.addr.TOC)
	if err != nil {
		return nil, err
	}
	if page < len(e.Map) && e.Map[page].State == disk.PageStored {
		// Count the lost race before reporting it: the retry is
		// invisible to the caller (the fault service returns clean and
		// the reference is simply reissued), so without the counter
		// the window's tests could pass vacuously.
		m.cells.NoteGrowRace()
		return nil, fmt.Errorf("%w: page %d of %d still stored", ErrGrowRace, page, uid)
	}
	// Check and charge quota: the O(1) static-cell probe.
	if err := m.cells.Charge(a.cell, 1); err != nil {
		return nil, err
	}
	// The descriptor is published with the lock bit held (KeepLocked)
	// and released only after the file map names the new page: between
	// the two, a concurrent eviction could otherwise zero-reclaim the
	// still-zero frame and free its record while this call goes on to
	// mark the map stored — a map entry naming a freed record.
	req := pageframe.PageReq{
		UID: uid, PT: a.pt, Page: page, Pack: pack,
		NotifySeg: notifySeg, NotifyPage: notifyPage, KeepLocked: true,
	}
	rec, ev, err := m.frames.AddPage(req)
	locked := err == nil
	defer func() {
		if locked {
			m.frames.Unlock(req)
		}
	}()
	if aerr := m.applyEvictions(ev); aerr != nil {
		return nil, aerr
	}
	if errors.Is(err, disk.ErrPackFull) {
		// The full-pack exception, returned up the call chain:
		// relocate and retry on the new pack.
		newAddr, rerr := m.relocate(a)
		if rerr != nil {
			_ = m.cells.Release(a.cell, 1)
			if newAddr != (disk.SegAddr{}) {
				// The move committed before the failing step; report
				// the new address so the directory entry is updated.
				return &newAddr, fmt.Errorf("segment: relocating %d after full pack: %w", uid, rerr)
			}
			return nil, fmt.Errorf("segment: relocating %d after full pack: %w", uid, rerr)
		}
		newPack, perr := m.vols.Pack(newAddr.Pack)
		if perr != nil {
			return &newAddr, perr
		}
		req = pageframe.PageReq{
			UID: uid, PT: a.pt, Page: page, Pack: newPack,
			NotifySeg: notifySeg, NotifyPage: notifyPage, KeepLocked: true,
		}
		rec, ev, err = m.frames.AddPage(req)
		locked = err == nil
		if aerr := m.applyEvictions(ev); aerr != nil {
			return &newAddr, aerr
		}
		if err != nil {
			_ = m.cells.Release(a.cell, 1)
			return &newAddr, err
		}
		if err := m.setMapEntry(newAddr, page, disk.FileMapEntry{State: disk.PageStored, Record: rec}); err != nil {
			return &newAddr, err
		}
		m.noteMapLen(a, page+1)
		return &newAddr, nil
	}
	if err != nil {
		_ = m.cells.Release(a.cell, 1)
		return nil, err
	}
	if err := m.setMapEntry(a.addr, page, disk.FileMapEntry{State: disk.PageStored, Record: rec}); err != nil {
		return nil, err
	}
	m.noteMapLen(a, page+1)
	return nil, nil
}

// noteMapLen records growth of the file map.
func (m *Manager) noteMapLen(a *ASTE, n int) {
	m.mu.Lock()
	if n > a.mapLen {
		a.mapLen = n
	}
	m.mu.Unlock()
}

// setMapEntry updates one file-map entry, extending the map with
// unallocated entries as needed.
func (m *Manager) setMapEntry(addr disk.SegAddr, page int, fm disk.FileMapEntry) error {
	pack, err := m.vols.Pack(addr.Pack)
	if err != nil {
		return err
	}
	return pack.UpdateEntry(addr.TOC, func(e *disk.TOCEntry) error {
		for len(e.Map) <= page {
			e.Map = append(e.Map, disk.FileMapEntry{State: disk.PageUnallocated})
		}
		e.Map[page] = fm
		return nil
	})
}

// applyEvictions folds the page frame manager's eviction reports into
// the owning segments' file maps and quota accounting: a zero page
// becomes a file-map flag and releases its storage charge.
func (m *Manager) applyEvictions(evs []pageframe.Evicted) error {
	for _, ev := range evs {
		m.mu.Lock()
		a, ok := m.byUID[ev.UID]
		m.mu.Unlock()
		if !ok {
			return fmt.Errorf("segment: eviction report for inactive segment %d", ev.UID)
		}
		if ev.Zero {
			if err := m.setMapEntry(a.addr, ev.Page, disk.FileMapEntry{State: disk.PageZero}); err != nil {
				return err
			}
			if ev.FreedRecord && a.hasCell {
				if err := m.ensureCell(a.cell); err != nil {
					return err
				}
				if err := m.cells.Release(a.cell, 1); err != nil {
					return err
				}
			}
		}
		// A non-zero eviction was written back in place; the file
		// map already names its record.
	}
	return nil
}

// relocate moves an active segment, whose pack is full, to the
// emptiest mounted pack: flush resident pages, copy every stored
// record, move the table-of-contents entry (including any quota
// cell), sever all address-space connections, and update the AST.
func (m *Manager) relocate(a *ASTE) (disk.SegAddr, error) {
	oldPack, err := m.vols.Pack(a.addr.Pack)
	if err != nil {
		return disk.SegAddr{}, err
	}
	// Flush resident pages so the table-of-contents entry is the
	// whole truth.
	ev, err := m.frames.ReleaseSegment(a.pt)
	if err != nil {
		return disk.SegAddr{}, err
	}
	if err := m.applyEvictions(ev); err != nil {
		return disk.SegAddr{}, err
	}
	newPack, err := m.vols.Emptiest(a.addr.Pack)
	if err != nil {
		return disk.SegAddr{}, err
	}
	e, err := oldPack.Entry(a.addr.TOC)
	if err != nil {
		return disk.SegAddr{}, err
	}
	// If the moving segment is a quota directory whose cell is
	// cached, flush the live count into the old entry before the
	// copy, so the cell survives the move intact.
	cellActive := e.Quota.Valid && m.cells.Active(a.addr)
	if cellActive {
		if err := m.cells.Deactivate(a.addr); err != nil {
			return disk.SegAddr{}, err
		}
		if e, err = oldPack.Entry(a.addr.TOC); err != nil {
			_ = m.cells.Activate(a.addr)
			return disk.SegAddr{}, err
		}
	}
	if newPack.FreeRecords() < e.Records()+1 {
		if cellActive {
			_ = m.cells.Activate(a.addr)
		}
		return disk.SegAddr{}, fmt.Errorf("segment: no pack can hold segment %d (%d records)", a.uid, e.Records()+1)
	}
	// Relocation is a multi-step update of two tables of contents, so
	// it must be interruptible at every step without corruption. abort
	// undoes the visible effects of a failed move — copied records are
	// freed, the half-built new entry is deleted, and a flushed quota
	// cell is re-cached under its old name — leaving the pre-relocation
	// state for a clean retry. After a simulated crash the undo writes
	// fail too; then the pack stays dirty and the volume salvager
	// repairs the leftovers at reboot.
	var (
		haveNew   bool
		newIdx    disk.TOCIndex
		copied    []disk.RecordAddr
		installed bool
	)
	abort := func(cause error) (disk.SegAddr, error) {
		if haveNew {
			if !installed {
				// The copied records are not yet named by the new
				// entry's file map; free them individually.
				for _, r := range copied {
					_ = newPack.FreeRecord(r)
				}
			}
			_ = newPack.DeleteEntry(newIdx)
		}
		if cellActive {
			_ = m.cells.Activate(a.addr)
		}
		return disk.SegAddr{}, cause
	}
	newIdx, err = newPack.CreateEntry(a.uid, a.dir, e.Gov)
	if err != nil {
		return abort(fmt.Errorf("segment: relocating %d: %w", a.uid, err))
	}
	haveNew = true
	newAddr := disk.SegAddr{Pack: newPack.ID(), TOC: newIdx}
	buf := make([]hw.Word, hw.PageWords)
	newMap := make([]disk.FileMapEntry, len(e.Map))
	for i, fm := range e.Map {
		newMap[i] = fm
		if fm.State != disk.PageStored {
			continue
		}
		var rec disk.RecordAddr
		if err := disk.Retry(m.meter, func() error {
			var aerr error
			rec, aerr = newPack.AllocRecord()
			return aerr
		}); err != nil {
			return abort(fmt.Errorf("segment: relocating %d, allocating for page %d: %w", a.uid, i, err))
		}
		copied = append(copied, rec)
		if err := disk.Retry(m.meter, func() error {
			return oldPack.ReadRecord(fm.Record, buf)
		}); err != nil {
			return abort(fmt.Errorf("segment: relocating %d, reading page %d: %w", a.uid, i, err))
		}
		if err := disk.Retry(m.meter, func() error {
			return newPack.WriteRecord(rec, buf)
		}); err != nil {
			return abort(fmt.Errorf("segment: relocating %d, writing page %d: %w", a.uid, i, err))
		}
		newMap[i].Record = rec
	}
	if err := newPack.UpdateEntry(newIdx, func(ne *disk.TOCEntry) error {
		ne.Map = newMap
		ne.Quota = e.Quota
		return nil
	}); err != nil {
		return abort(fmt.Errorf("segment: relocating %d, installing file map: %w", a.uid, err))
	}
	installed = true
	// The new copy is complete; deleting the old entry is the commit
	// point. Before it, aborting restores the original. After it, the
	// segment lives at newAddr, and any later failure is reported
	// alongside that address so callers still record the move.
	if err := oldPack.DeleteEntry(a.addr.TOC); err != nil {
		return abort(fmt.Errorf("segment: relocating %d, deleting old entry: %w", a.uid, err))
	}
	// Rehome the cached cell under its new name. On failure the cell
	// stays safely flushed in the new entry, and charging reactivates
	// it lazily, so the move itself stands.
	var postErr error
	if cellActive {
		if err := m.cells.Activate(newAddr); err != nil {
			postErr = fmt.Errorf("segment: relocated %d but its quota cell is not cached: %w", a.uid, err)
		}
	}
	// Sever the address spaces; processes reconnect through the
	// missing-segment machinery.
	if err := m.Disconnect(a.uid); err != nil && postErr == nil {
		postErr = err
	}
	oldAddr := a.addr
	m.mu.Lock()
	a.addr = newAddr
	// The move renamed any quota cell stored in the entry; rebind
	// every active segment charging against the old name.
	if e.Quota.Valid {
		for _, other := range m.byUID {
			if other.hasCell && other.cell == oldAddr {
				other.cell = newAddr
			}
		}
	}
	m.mu.Unlock()
	return newAddr, postErr
}

// DiskEntry returns a copy of the table-of-contents entry at addr,
// for modules above that need a segment's stored attributes.
func (m *Manager) DiskEntry(addr disk.SegAddr) (disk.TOCEntry, error) {
	pack, err := m.vols.Pack(addr.Pack)
	if err != nil {
		return disk.TOCEntry{}, err
	}
	return pack.Entry(addr.TOC)
}

// EnsureResident makes the given page of an active segment present,
// dispatching to the growth path (for unallocated and zero pages,
// which carry the quota-trap bit) or the missing-page path as the
// descriptor demands — the same triage the hardware exceptions
// perform for user references, available to kernel modules writing
// their own objects. A non-nil disk address reports a relocation the
// caller must record. Like a user reference, it retries a growth that
// lost the race with a zero-page reclaim (ErrGrowRace).
func (m *Manager) EnsureResident(uid uint64, page int) (*disk.SegAddr, error) {
	for {
		addr, err := m.ensureResident(uid, page)
		if !errors.Is(err, ErrGrowRace) {
			return addr, err
		}
		// Nothing was charged or allocated. The marked yield hands the
		// token to the reclaiming task under the deterministic
		// executor; the retry finds the reclaim finished.
		schedsim.Yield(schedsim.PointMark, "grow-race-retry")
		runtime.Gosched()
	}
}

func (m *Manager) ensureResident(uid uint64, page int) (*disk.SegAddr, error) {
	a, err := m.Lookup(uid)
	if err != nil {
		return nil, err
	}
	if page >= a.pt.Len() {
		return m.Grow(uid, page, 0, page)
	}
	d, err := a.pt.Get(page)
	if err != nil {
		return nil, err
	}
	switch {
	case d.Present:
		return nil, nil
	case d.QuotaTrap:
		return m.Grow(uid, page, 0, page)
	default:
		return nil, m.ServiceMissingPage(uid, page, 0, page)
	}
}

// WriteWord stores w at word offset off of an active, resident page
// (see EnsureResident). Kernel modules use it to maintain the objects
// they store in segments.
func (m *Manager) WriteWord(uid uint64, off int, w hw.Word) error {
	a, err := m.Lookup(uid)
	if err != nil {
		return err
	}
	page := hw.PageOf(off)
	d, err := a.pt.Get(page)
	if err != nil {
		return err
	}
	if !d.Present {
		return fmt.Errorf("segment: write to non-resident page %d of %d", page, uid)
	}
	if _, err := a.pt.Update(page, func(p *hw.PTW) { p.Modified = true; p.Used = true }); err != nil {
		return err
	}
	m.meter.Add(hw.CycMemRef)
	return m.frames.Mem().Write(m.frames.Mem().FrameBase(d.Frame)+off%hw.PageWords, w)
}

// ReadWord loads the word at offset off of an active, resident page.
func (m *Manager) ReadWord(uid uint64, off int) (hw.Word, error) {
	a, err := m.Lookup(uid)
	if err != nil {
		return 0, err
	}
	page := hw.PageOf(off)
	d, err := a.pt.Get(page)
	if err != nil {
		return 0, err
	}
	if !d.Present {
		return 0, fmt.Errorf("segment: read of non-resident page %d of %d", page, uid)
	}
	if _, err := a.pt.Update(page, func(p *hw.PTW) { p.Used = true }); err != nil {
		return 0, err
	}
	m.meter.Add(hw.CycMemRef)
	return m.frames.Mem().Read(m.frames.Mem().FrameBase(d.Frame) + off%hw.PageWords)
}

// EachActive calls fn for every active segment.
func (m *Manager) EachActive(fn func(*ASTE)) {
	m.mu.Lock()
	astes := make([]*ASTE, 0, len(m.byUID))
	for _, a := range m.byUID {
		astes = append(astes, a)
	}
	m.mu.Unlock()
	for _, a := range astes {
		fn(a)
	}
}

// Audit checks the manager's invariants: every active segment's page
// table must agree with its file map (a present or locked page is a
// stored page; a quota-trap page is not), and the table-of-contents
// entry must exist and carry the segment's uid.
func (m *Manager) Audit() []string {
	var bad []string
	m.EachActive(func(a *ASTE) {
		e, err := m.DiskEntry(a.Addr())
		if err != nil {
			bad = append(bad, fmt.Sprintf("segment %d: table-of-contents entry unreadable: %v", a.uid, err))
			return
		}
		if e.UID != a.uid {
			bad = append(bad, fmt.Sprintf("segment %d: entry at %v holds uid %d", a.uid, a.Addr(), e.UID))
			return
		}
		for page := 0; page < a.pt.Len(); page++ {
			d, err := a.pt.Get(page)
			if err != nil {
				bad = append(bad, fmt.Sprintf("segment %d page %d: %v", a.uid, page, err))
				continue
			}
			stored := page < len(e.Map) && e.Map[page].State == disk.PageStored
			switch {
			case d.Present && !stored:
				bad = append(bad, fmt.Sprintf("segment %d page %d resident but file map says %v", a.uid, page, stateOf(e.Map, page)))
			case d.QuotaTrap && stored:
				bad = append(bad, fmt.Sprintf("segment %d page %d stored but descriptor still traps for quota", a.uid, page))
			case !d.Present && !d.QuotaTrap && !stored && !d.Lock:
				bad = append(bad, fmt.Sprintf("segment %d page %d is unreachable: not present, not trapped, not stored", a.uid, page))
			}
		}
	})
	return bad
}

func stateOf(m []disk.FileMapEntry, page int) disk.PageState {
	if page < len(m) {
		return m[page].State
	}
	return disk.PageUnallocated
}

// Deactivate removes the segment from the AST, flushing its resident
// pages. No hierarchy constraint applies.
func (m *Manager) Deactivate(uid uint64) error {
	a, err := m.Lookup(uid)
	if err != nil {
		return err
	}
	ev, err := m.frames.ReleaseSegment(a.pt)
	if err != nil {
		return err
	}
	if err := m.applyEvictions(ev); err != nil {
		return err
	}
	if err := m.Disconnect(uid); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.byUID, uid)
	m.slots[a.slot] = false
	_ = m.ast.Write(a.slot*ASTEWords, 0)
	return nil
}

// Truncate discards every page of an active segment at or beyond
// newPages: resident frames are dropped without write-back, stored
// records are freed, and the released pages are returned to the
// governing quota cell. Truncation to zero empties the segment
// without destroying it.
func (m *Manager) Truncate(uid uint64, newPages int) error {
	if newPages < 0 {
		return fmt.Errorf("segment: truncate to %d pages", newPages)
	}
	a, err := m.Lookup(uid)
	if err != nil {
		return err
	}
	pack, err := m.vols.Pack(a.addr.Pack)
	if err != nil {
		return err
	}
	// Collect the records under the entry lock; free them after
	// (FreeRecord takes the same pack lock).
	var toFree []disk.RecordAddr
	if err := pack.UpdateEntry(a.addr.TOC, func(e *disk.TOCEntry) error {
		for page := newPages; page < len(e.Map); page++ {
			if e.Map[page].State == disk.PageStored {
				toFree = append(toFree, e.Map[page].Record)
			}
			e.Map[page] = disk.FileMapEntry{State: disk.PageUnallocated}
		}
		if len(e.Map) > newPages {
			e.Map = e.Map[:newPages]
		}
		return nil
	}); err != nil {
		return err
	}
	for _, rec := range toFree {
		// A late write-back must not land on the record's next owner.
		m.frames.AwaitWrite(pack, rec)
		if err := pack.FreeRecord(rec); err != nil {
			return err
		}
	}
	freed := len(toFree)
	// Drop resident frames and restore the quota-trap bits so the
	// truncated region grows through the charged path again.
	m.frames.DropPages(a.pt, newPages)
	if err := a.pt.ResetFrom(newPages, hw.PTW{QuotaTrap: true}); err != nil {
		return err
	}
	m.mu.Lock()
	if a.mapLen > newPages {
		a.mapLen = newPages
	}
	m.mu.Unlock()
	if freed > 0 && a.hasCell {
		if err := m.ensureCell(a.cell); err != nil {
			return err
		}
		return m.cells.Release(a.cell, freed)
	}
	return nil
}

// Delete destroys a segment: deactivates it if active and deletes its
// table-of-contents entry, releasing its storage charge.
func (m *Manager) Delete(uid uint64, addr disk.SegAddr) error {
	m.mu.Lock()
	a, active := m.byUID[uid]
	m.mu.Unlock()
	var cell quota.CellName
	var hasCell bool
	if active {
		addr = a.addr
		cell, hasCell = a.cell, a.hasCell
		m.frames.DropPages(a.pt, 0)
		if err := m.Disconnect(uid); err != nil {
			return err
		}
		m.mu.Lock()
		delete(m.byUID, uid)
		m.slots[a.slot] = false
		_ = m.ast.Write(a.slot*ASTEWords, 0)
		m.mu.Unlock()
	}
	pack, err := m.vols.Pack(addr.Pack)
	if err != nil {
		return err
	}
	e, err := pack.Entry(addr.TOC)
	if err != nil {
		return err
	}
	stored := e.Records()
	for _, fm := range e.Map {
		if fm.State == disk.PageStored {
			m.frames.AwaitWrite(pack, fm.Record)
		}
	}
	if err := pack.DeleteEntry(addr.TOC); err != nil {
		return err
	}
	if hasCell && stored > 0 {
		if err := m.ensureCell(cell); err != nil {
			return err
		}
		if err := m.cells.Release(cell, stored); err != nil {
			return err
		}
	}
	return nil
}
