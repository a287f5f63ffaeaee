// Package quota implements the quota cell manager of the kernel
// design.
//
// In the 1974 supervisor, quota limits and counts lived in directory
// entries, and page control located the governing quota directory by
// walking segment control's active segment table up the directory
// hierarchy on every segment growth — constraining the active segment
// table to follow the hierarchy's shape and making page control depend
// on segment control.
//
// The redesign makes quota cells explicit objects with their own
// manager. A quota cell is stored in the disk pack table-of-contents
// entry for its directory and is cached in primary memory in a table
// (a core segment) managed here. The segment manager presents the
// cell when a directory is activated and names the cell — statically,
// thanks to the rule that a directory may be designated a quota
// directory only while it has no children — whenever quota must be
// checked. No upward search of the hierarchy remains.
package quota

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"multics/internal/coreseg"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/lockrank"
	"multics/internal/trace"
)

// ModuleName is this manager's name in the kernel dependency graph;
// trace events for quota checks are attributed to it.
const ModuleName = "quota-cell-manager"

// ErrExceeded is the quota-exhausted error: the requested growth would
// push the count past the cell's limit.
var ErrExceeded = errors.New("quota: limit exceeded")

// ErrNotActive is returned for operations on a cell that has not been
// activated into the primary-memory table.
var ErrNotActive = errors.New("quota: cell not active")

// CellWords is the size of one cached cell in the core-segment table.
const CellWords = 4

// A CellName is the static name of a quota cell: the disk address of
// the table-of-contents entry of its quota directory.
type CellName = disk.SegAddr

type cell struct {
	slot  int
	limit int
	used  int
}

// A Manager caches active quota cells in a core segment and performs
// all operations on them.
type Manager struct {
	vols  *disk.Volumes
	table *coreseg.Segment
	meter *hw.CostMeter
	trace *trace.Recorder

	mu    lockrank.Mutex
	cells map[CellName]*cell
	slots []bool // slot occupancy in the core-segment table

	growRaces atomic.Int64
}

// Stats is the manager's counter block.
type Stats struct {
	// GrowRaces counts quota growths that lost the trap-vs-reclaim
	// race (segment.ErrGrowRace): the faulter took a quota trap for a
	// page whose record still existed because the zero-reclaim had
	// not yet reached the file map, and the growth was retried from
	// the rereference. Schedule sweeps assert this counter to prove
	// the PR-6 window was actually exercised, not vacuously passed.
	GrowRaces int64
}

// Stats reports the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{GrowRaces: m.growRaces.Load()}
}

// NoteGrowRace records one quota growth lost to the trap-vs-reclaim
// race. The segment manager calls it where it returns ErrGrowRace.
func (m *Manager) NoteGrowRace() { m.growRaces.Add(1) }

// NewManager returns a quota cell manager whose cache lives in the
// core segment table. Quota-check events go to rec (nil when
// untraced).
func NewManager(vols *disk.Volumes, table *coreseg.Segment, meter *hw.CostMeter, rec *trace.Recorder) (*Manager, error) {
	if table == nil || table.Words() < CellWords {
		return nil, errors.New("quota: cache table segment too small")
	}
	m := &Manager{
		vols:  vols,
		table: table,
		meter: meter,
		trace: rec,
		cells: make(map[CellName]*cell),
		slots: make([]bool, table.Words()/CellWords),
	}
	m.mu.Init(ModuleName)
	return m, nil
}

// InitCell establishes a quota cell with the given limit in the
// table-of-contents entry named by name. The directory manager calls
// it when a directory is designated a quota directory; the entry must
// not already hold a valid cell.
func (m *Manager) InitCell(name CellName, limit int) error {
	if limit < 0 {
		return fmt.Errorf("quota: negative limit %d", limit)
	}
	pack, err := m.vols.Pack(name.Pack)
	if err != nil {
		return err
	}
	return pack.UpdateEntry(name.TOC, func(e *disk.TOCEntry) error {
		if e.Quota.Valid {
			return fmt.Errorf("quota: %v already holds a quota cell", name)
		}
		if !e.Dir {
			return fmt.Errorf("quota: %v is not a directory", name)
		}
		e.Quota = disk.QuotaCell{Valid: true, Limit: limit}
		return nil
	})
}

// Activate loads the cell from its table-of-contents entry into the
// primary-memory table. The segment manager calls it whenever a quota
// directory is activated. Activating an already active cell is an
// error; the caller tracks activation.
func (m *Manager) Activate(name CellName) error {
	pack, err := m.vols.Pack(name.Pack)
	if err != nil {
		return err
	}
	e, err := pack.Entry(name.TOC)
	if err != nil {
		return err
	}
	if !e.Quota.Valid {
		return fmt.Errorf("quota: %v holds no quota cell", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cells[name]; ok {
		return fmt.Errorf("quota: cell %v already active", name)
	}
	slot := -1
	for i, taken := range m.slots {
		if !taken {
			slot = i
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("quota: primary-memory table full (%d cells)", len(m.slots))
	}
	c := &cell{slot: slot, limit: e.Quota.Limit, used: e.Quota.Used}
	m.slots[slot] = true
	m.cells[name] = c
	return m.store(c)
}

// store writes the cell through to its slot in the core-segment table.
func (m *Manager) store(c *cell) error {
	base := c.slot * CellWords
	if err := m.table.Write(base, hw.Word(c.used)); err != nil {
		return err
	}
	return m.table.Write(base+1, hw.Word(c.limit))
}

// Deactivate writes the cell back to its table-of-contents entry and
// frees its table slot. The write-back happens first, with bounded
// retry on transient disk faults; the cached copy is evicted only
// after the entry holds the count. On failure the cell stays active
// and the cache remains authoritative — deactivation can be retried,
// and no count is ever lost to a half-done flush.
func (m *Manager) Deactivate(name CellName) error {
	m.mu.Lock()
	c, ok := m.cells[name]
	if !ok {
		m.mu.Unlock()
		return ErrNotActive
	}
	limit, used := c.limit, c.used
	m.mu.Unlock()

	pack, err := m.vols.Pack(name.Pack)
	if err != nil {
		return err
	}
	if err := disk.Retry(m.meter, func() error {
		return pack.UpdateEntry(name.TOC, func(e *disk.TOCEntry) error {
			e.Quota = disk.QuotaCell{Valid: true, Limit: limit, Used: used}
			return nil
		})
	}); err != nil {
		return fmt.Errorf("quota: flushing cell %v: %w", name, err)
	}

	m.mu.Lock()
	// Re-check under the lock: a concurrent Deactivate may have
	// already evicted the cell after our flush.
	if cur, ok := m.cells[name]; ok && cur == c {
		delete(m.cells, name)
		m.slots[c.slot] = false
	}
	m.mu.Unlock()
	return nil
}

// DeactivateAll writes every active cell back to its table-of-contents
// entry, in (pack, table-of-contents index) order, and frees its slot:
// the quota half of an orderly shutdown, after the segments are
// deactivated. It stops at the first failure.
func (m *Manager) DeactivateAll() error {
	m.mu.Lock()
	names := make([]CellName, 0, len(m.cells))
	for name := range m.cells {
		names = append(names, name)
	}
	m.mu.Unlock()
	slices.SortFunc(names, func(a, b CellName) int {
		return cmp.Or(cmp.Compare(a.Pack, b.Pack), cmp.Compare(a.TOC, b.TOC))
	})
	for _, name := range names {
		if err := m.Deactivate(name); err != nil {
			return err
		}
	}
	return nil
}

// Charge checks that n more pages fit under the cell's limit and adds
// them to the count. It is the operation behind every segment growth.
func (m *Manager) Charge(name CellName, n int) error {
	if n < 0 {
		return fmt.Errorf("quota: negative charge %d", n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[name]
	if !ok {
		return ErrNotActive
	}
	m.meter.Add(ModuleName, hw.CycMemRef) // one table probe: the O(1) the redesign buys
	if m.trace != nil {
		m.trace.Emit(trace.Event{
			Kind: trace.EvQuotaCheck, Module: ModuleName,
			Arg0: int64(n), Arg1: int64(c.used), Arg2: int64(c.limit),
		})
	}
	if c.used+n > c.limit {
		return fmt.Errorf("%w: cell %v at %d/%d, requested %d", ErrExceeded, name, c.used, c.limit, n)
	}
	c.used += n
	return m.store(c)
}

// Release returns n pages to the cell (pages freed by truncation or
// discovered to be zero by the page-removal algorithm).
func (m *Manager) Release(name CellName, n int) error {
	if n < 0 {
		return fmt.Errorf("quota: negative release %d", n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[name]
	if !ok {
		return ErrNotActive
	}
	if n > c.used {
		return fmt.Errorf("quota: release of %d exceeds count %d on cell %v", n, c.used, name)
	}
	c.used -= n
	return m.store(c)
}

// SetLimit changes the cell's limit. A limit below the current count
// is allowed: it simply forbids further growth.
func (m *Manager) SetLimit(name CellName, limit int) error {
	if limit < 0 {
		return fmt.Errorf("quota: negative limit %d", limit)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[name]
	if !ok {
		return ErrNotActive
	}
	c.limit = limit
	return m.store(c)
}

// Info reports the cell's limit and current count.
func (m *Manager) Info(name CellName) (limit, used int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[name]
	if !ok {
		return 0, 0, ErrNotActive
	}
	return c.limit, c.used, nil
}

// Active reports whether the named cell is in the primary-memory
// table.
func (m *Manager) Active(name CellName) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.cells[name]
	return ok
}
