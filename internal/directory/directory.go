// Package directory implements the directory manager: the top module
// of the file-system lattice. It owns the naming hierarchy, the
// access control lists (which, as in Multics, live in directory
// entries, so access to an object is determined entirely by the
// object's own ACL), the AIM labels, and the storage-quota
// designation of directories.
//
// Three of the paper's case studies live here:
//
//   - Bratt's directory-searching primitive (Search): the kernel
//     exports a single-directory search so pathname expansion can run
//     in the user ring; asked to search an inaccessible (or
//     nonexistent) directory it always returns a matching identifier,
//     real or mythical, so a caller can never learn whether a name it
//     had no right to see exists.
//
//   - The quota-directory semantics change: a directory may be
//     designated a quota directory only while it has no children,
//     which makes the binding between every segment and its governing
//     quota cell static.
//
//   - The relocation-notice handler: the known segment manager signals
//     upward after a full-pack relocation, and the handler here
//     updates the directory entry with the new pack identifier and
//     table-of-contents index, then restores the interrupted process
//     state so it rereferences the segment.
package directory

import (
	"errors"
	"fmt"
	"sort"

	"multics/internal/aim"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/knownseg"
	"multics/internal/lockrank"
	"multics/internal/quota"
	"multics/internal/segment"
	"multics/internal/upsignal"
)

// ModuleName is this manager's name in the kernel dependency graph.
// It doubles as the upward-signal target for relocation notices
// (knownseg.RelocationTarget names it).
const ModuleName = "directory-manager"

// EntryWords is the directory-segment storage consumed per entry, so
// that directories grow (and charge quota) as they fill.
const EntryWords = 32

// Simulated algorithm-body costs (assembly-cycle units; the manager
// is PL/I-coded in the kernel).
const (
	bodySearch        = 80  // one Search call: probe one directory
	bodyResolveKernel = 150 // one path component inside the buried in-kernel resolver
	bodyInitiate      = 120 // ACL + AIM evaluation and KST handoff
)

// Errors of the user-visible semantics. ErrNoAccess is deliberately
// the answer to several distinguishable situations (no permission,
// mythical identifier, nonexistent object behind an inaccessible
// path): collapsing them is what keeps the naming semantics from
// leaking information.
var (
	ErrNoAccess    = errors.New("directory: no access")
	ErrNotFound    = errors.New("directory: name not found")
	ErrExists      = errors.New("directory: name already exists")
	ErrNotDir      = errors.New("directory: not a directory")
	ErrNotEmpty    = errors.New("directory: directory not empty")
	ErrHasChildren = errors.New("directory: quota designation requires a childless directory")
)

// An Entry is one directory entry: the name-to-segment binding plus
// the object's ACL and AIM label.
type Entry struct {
	Name  string
	ID    Identifier
	UID   uint64
	Addr  disk.SegAddr
	IsDir bool
	ACL   ACL
	Label aim.Label
}

// A Grant is what Initiate hands back for the known segment manager:
// everything a process needs to bind and use a segment, including the
// statically resolved governing quota cell.
type Grant struct {
	UID     uint64
	Addr    disk.SegAddr
	IsDir   bool
	Access  hw.AccessMode
	Label   aim.Label
	Cell    quota.CellName
	HasCell bool
}

// dirNode is the in-memory representation of one directory. The
// authoritative name map is a component of the directory object; its
// representation is stored in the directory's segment (each entry
// consumes EntryWords there, so directories occupy quota like any
// segment).
type dirNode struct {
	entry    *Entry // entry in the parent (nil for root)
	parent   *dirNode
	children map[string]*Entry
	nodes    map[string]*dirNode // child directories
	quotaDir bool
	cell     quota.CellName // governing cell for objects beneath
	// cellUID is the unique identifier of the quota directory owning
	// cell. Unlike the cell's disk address it survives relocation, so
	// it is what gets recorded on disk (TOCEntry.Gov) for the volume
	// salvager's quota recount.
	cellUID uint64
}

// A Manager is the directory manager.
type Manager struct {
	segs    *segment.Manager
	ksm     *knownseg.Manager
	cells   *quota.Manager
	signals *upsignal.Dispatcher
	meter   *hw.CostMeter

	// Lang is the implementation language for the cost model.
	Lang hw.Language

	spread bool

	mu       lockrank.Mutex
	ids      idGen
	root     *dirNode
	rootID   Identifier
	byID     map[Identifier]*Entry
	parentOf map[Identifier]*dirNode
	byUID    map[uint64]*Entry

	// Restore is invoked with the saved process state carried by a
	// relocation notice, after the directory entry is updated; the
	// kernel installs the hook that resumes the process.
	Restore func(state any)
}

// Config parameterizes NewManager.
type Config struct {
	RootPack  string
	RootQuota int
	RootACL   ACL
	RootLabel aim.Label
	// Seed makes identifier fabrication deterministic for tests.
	Seed uint64
	// Spread places new non-directory segments round-robin across
	// the mounted packs instead of on the containing directory's
	// pack, so independent files' faults land on different device
	// arms. Directories stay with their parent: the hierarchy walks
	// remain clustered.
	Spread bool
}

// NewManager creates the directory manager and the root directory —
// a quota directory governing everything until deeper designations
// are made — and registers the relocation-notice handler.
func NewManager(segs *segment.Manager, ksm *knownseg.Manager, cells *quota.Manager, signals *upsignal.Dispatcher, meter *hw.CostMeter, cfg Config) (*Manager, error) {
	if cfg.RootQuota <= 0 {
		return nil, fmt.Errorf("directory: root quota %d", cfg.RootQuota)
	}
	if len(cfg.RootACL) == 0 {
		cfg.RootACL = Public(hw.Read | hw.Write | hw.Execute)
	}
	m := &Manager{
		segs:     segs,
		ksm:      ksm,
		cells:    cells,
		signals:  signals,
		meter:    meter,
		Lang:     hw.PLI,
		spread:   cfg.Spread,
		ids:      idGen{secret: cfg.Seed ^ 0x6180},
		byID:     make(map[Identifier]*Entry),
		parentOf: make(map[Identifier]*dirNode),
		byUID:    make(map[uint64]*Entry),
	}
	m.mu.Init(ModuleName)
	uid := segs.NewUID()
	// The root is its own quota directory, so its pages govern
	// themselves: gov is its own uid.
	addr, err := segs.Create(cfg.RootPack, uid, true, uid)
	if err != nil {
		return nil, err
	}
	if err := cells.InitCell(addr, cfg.RootQuota); err != nil {
		return nil, err
	}
	if _, err := segs.Activate(uid, addr, addr, true); err != nil {
		return nil, err
	}
	rootEntry := &Entry{
		Name: "", ID: m.ids.real(), UID: uid, Addr: addr,
		IsDir: true, ACL: cfg.RootACL.Clone(), Label: cfg.RootLabel,
	}
	m.root = &dirNode{
		entry:    rootEntry,
		children: make(map[string]*Entry),
		nodes:    make(map[string]*dirNode),
		quotaDir: true,
		cell:     addr,
		cellUID:  uid,
	}
	m.rootID = rootEntry.ID
	m.byID[rootEntry.ID] = rootEntry
	m.byUID[uid] = rootEntry
	if signals != nil {
		if err := signals.Register(knownseg.RelocationTarget, m.handleRelocation); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RootID returns the identifier of the root directory, the well-known
// starting point for searches.
func (m *Manager) RootID() Identifier { return m.rootID }

// searchable reports whether the principal may search (read names in)
// the directory: read permission on the directory's own ACL and no
// AIM read-up.
func searchable(p Principal, plabel aim.Label, d *dirNode) bool {
	return d.entry.ACL.Allows(p, hw.Read) && aim.CheckRead(plabel, d.entry.Label) == nil
}

// modifiable reports whether the principal may create or delete
// entries. Modifying a directory is a read-modify-write — creating an
// entry observes name collisions, deleting observes existence — so it
// needs write permission and BOTH flow checks: in effect, a process
// modifies a directory only at the directory's own label. (A pure
// write-up here would leak the directory's names downward through
// collision errors.)
func modifiable(p Principal, plabel aim.Label, d *dirNode) bool {
	return d.entry.ACL.Allows(p, hw.Write) &&
		aim.CheckWrite(plabel, d.entry.Label) == nil &&
		aim.CheckRead(plabel, d.entry.Label) == nil
}

// Search is the protected directory-searching primitive of Bratt's
// design: it searches a single designated directory for one name and
// returns the identifier of the matching entry. If the caller may not
// search the directory — or the "directory" never existed — a matching
// identifier is returned anyway: real when the name exists (so paths
// through forbidden directories still reach files the caller is
// entitled to), mythical otherwise. The caller cannot distinguish the
// cases; pathname expansion above the kernel builds on exactly this.
func (m *Manager) Search(p Principal, plabel aim.Label, dirID Identifier, name string) (Identifier, error) {
	m.meter.AddBody(ModuleName, bodySearch, m.Lang)
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, isReal := m.byID[dirID]
	if !isReal {
		// Mythical directory: mythical child, stable per name.
		return m.ids.mythical(dirID, name), nil
	}
	node := m.nodeFor(entry)
	if node == nil {
		// A file used as a directory. If the caller could know
		// that (it has some access to the file), say so; otherwise
		// behave exactly like an inaccessible directory.
		if entry.ACL.ModeFor(p) != 0 && aim.CheckRead(plabel, entry.Label) == nil {
			return 0, fmt.Errorf("%w: %s", ErrNotDir, entry.Name)
		}
		return m.ids.mythical(dirID, name), nil
	}
	child, exists := node.children[name]
	if searchable(p, plabel, node) {
		if !exists {
			return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return child.ID, nil
	}
	if exists {
		return child.ID, nil
	}
	return m.ids.mythical(dirID, name), nil
}

// nodeFor returns the dirNode backing a directory entry (nil for
// files). Caller holds m.mu.
func (m *Manager) nodeFor(e *Entry) *dirNode {
	if !e.IsDir {
		return nil
	}
	if e.ID == m.rootID {
		return m.root
	}
	parent := m.parentOf[e.ID]
	if parent == nil {
		return nil
	}
	return parent.nodes[e.Name]
}

// Initiate evaluates the caller's right to use the object named by id
// and returns the Grant the known segment manager needs. Access is
// determined entirely by the object's own ACL and label; a mythical
// identifier, a missing object, and a forbidden object all yield the
// same ErrNoAccess.
func (m *Manager) Initiate(p Principal, plabel aim.Label, id Identifier) (Grant, error) {
	m.meter.AddBody(ModuleName, bodyInitiate, m.Lang)
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, ok := m.byID[id]
	if !ok {
		return Grant{}, ErrNoAccess
	}
	mode := entry.ACL.ModeFor(p)
	if aim.CheckRead(plabel, entry.Label) != nil {
		mode &^= hw.Read | hw.Execute
	}
	if aim.CheckWrite(plabel, entry.Label) != nil {
		mode &^= hw.Write
	}
	if mode == 0 {
		return Grant{}, ErrNoAccess
	}
	cell, hasCell := m.cellForLocked(entry)
	return Grant{
		UID: entry.UID, Addr: entry.Addr, IsDir: entry.IsDir,
		Access: mode, Label: entry.Label, Cell: cell, HasCell: hasCell,
	}, nil
}

// cellForLocked resolves the governing quota cell of an entry: the
// directory's own cell if it is a quota directory, otherwise the cell
// of the containing directory. The resolution is static — recorded at
// creation and designation time — never a runtime hierarchy walk.
func (m *Manager) cellForLocked(e *Entry) (quota.CellName, bool) {
	if e.IsDir {
		if node := m.nodeFor(e); node != nil {
			return node.cell, true
		}
	}
	parent := m.parentOf[e.ID]
	if parent == nil {
		return quota.CellName{}, false
	}
	return parent.cell, true
}

// Create makes a new file or directory entry under dirID. The new
// object's label must dominate the containing directory's (AIM keeps
// labels non-decreasing along paths), and the caller needs modify
// access to the directory. The entry's storage is charged against the
// directory's segment.
func (m *Manager) Create(p Principal, plabel aim.Label, dirID Identifier, name string, isDir bool, acl ACL, label aim.Label) (Identifier, error) {
	if name == "" {
		return 0, errors.New("directory: empty name")
	}
	m.mu.Lock()
	entry, ok := m.byID[dirID]
	if !ok {
		m.mu.Unlock()
		return 0, ErrNoAccess
	}
	node := m.nodeFor(entry)
	if node == nil {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNotDir, entry.Name)
	}
	if !modifiable(p, plabel, node) {
		m.mu.Unlock()
		return 0, ErrNoAccess
	}
	if _, exists := node.children[name]; exists {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrExists, name)
	}
	if !label.Valid() || !label.Dominates(node.entry.Label) {
		m.mu.Unlock()
		return 0, fmt.Errorf("directory: label %v does not dominate containing directory's %v", label, node.entry.Label)
	}
	if len(acl) == 0 {
		acl = Owner(p)
	}
	dirUID := node.entry.UID
	dirPack := node.entry.Addr.Pack
	inheritCell := node.cell
	inheritCellUID := node.cellUID
	nEntries := len(node.children) + 1
	m.mu.Unlock()

	// Grow the directory's segment to hold the new entry (charged
	// to the directory's governing cell; may relocate the directory
	// itself, which recordNewAddr absorbs).
	lastOff := nEntries*EntryWords - 1
	if newAddr, err := m.segs.EnsureResident(dirUID, hw.PageOf(lastOff)); err != nil {
		return 0, err
	} else if newAddr != nil {
		m.recordNewAddr(dirUID, *newAddr)
		dirPack = newAddr.Pack
	}

	uid := m.segs.NewUID()
	if m.spread && !isDir {
		if id := m.segs.SpreadPack(); id != "" {
			dirPack = id
		}
	}
	addr, err := m.segs.Create(dirPack, uid, isDir, inheritCellUID)
	if err != nil {
		return 0, err
	}
	if isDir {
		// Directory segments stay active: the directory manager
		// writes entries into them. Their pages charge the
		// inherited governing cell until a quota designation.
		if _, err := m.segs.Activate(uid, addr, inheritCell, true); err != nil {
			return 0, err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	child := &Entry{
		Name: name, ID: m.ids.real(), UID: uid, Addr: addr,
		IsDir: isDir, ACL: acl.Clone(), Label: label,
	}
	node.children[name] = child
	m.byID[child.ID] = child
	m.byUID[uid] = child
	m.parentOf[child.ID] = node
	if isDir {
		node.nodes[name] = &dirNode{
			entry:    child,
			parent:   node,
			children: make(map[string]*Entry),
			nodes:    make(map[string]*dirNode),
			cell:     node.cell, // inherit until designated
			cellUID:  node.cellUID,
		}
	}
	// Mark the entry's slot in the directory segment so the page is
	// genuinely non-zero storage.
	_ = m.segs.WriteWord(dirUID, (nEntries-1)*EntryWords, hw.Word(uid).Masked())
	return child.ID, nil
}

// List returns the names in a directory, sorted, for callers with
// read access.
func (m *Manager) List(p Principal, plabel aim.Label, dirID Identifier) ([]string, error) {
	m.meter.AddBody(ModuleName, bodySearch, m.Lang)
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, ok := m.byID[dirID]
	if !ok {
		return nil, ErrNoAccess
	}
	node := m.nodeFor(entry)
	if node == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, entry.Name)
	}
	if !searchable(p, plabel, node) {
		return nil, ErrNoAccess
	}
	names := make([]string, 0, len(node.children))
	for n := range node.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes the named entry from dirID and destroys its segment.
// A directory must be empty; a quota directory's cell is removed with
// it.
func (m *Manager) Delete(p Principal, plabel aim.Label, dirID Identifier, name string) error {
	m.mu.Lock()
	entry, ok := m.byID[dirID]
	if !ok {
		m.mu.Unlock()
		return ErrNoAccess
	}
	node := m.nodeFor(entry)
	if node == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotDir, entry.Name)
	}
	if !modifiable(p, plabel, node) {
		m.mu.Unlock()
		return ErrNoAccess
	}
	child, exists := node.children[name]
	if !exists {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	var childNode *dirNode
	if child.IsDir {
		childNode = node.nodes[name]
		if childNode != nil && len(childNode.children) > 0 {
			m.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrNotEmpty, name)
		}
	}
	cell, hasCell := m.cellForLocked(child)
	m.mu.Unlock()

	// A quota directory's cell lives in the directory's own
	// table-of-contents entry: flush it out of the cache while the
	// entry still exists, and it dies with the entry.
	if childNode != nil && childNode.quotaDir && m.cells.Active(child.Addr) {
		if err := m.cells.Deactivate(child.Addr); err != nil {
			return err
		}
	}
	if err := m.segs.Delete(child.UID, child.Addr, cell, hasCell); err != nil {
		return err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	delete(node.children, name)
	delete(node.nodes, name)
	delete(m.byID, child.ID)
	delete(m.byUID, child.UID)
	delete(m.parentOf, child.ID)
	return nil
}

// Rename changes an entry's name within its directory. The object,
// its identifier, its segment and its charges are untouched — only the
// binding in the containing directory moves, which is why the right to
// rename is modify access on that directory.
func (m *Manager) Rename(p Principal, plabel aim.Label, dirID Identifier, oldName, newName string) error {
	if newName == "" {
		return errors.New("directory: empty name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, ok := m.byID[dirID]
	if !ok {
		return ErrNoAccess
	}
	node := m.nodeFor(entry)
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotDir, entry.Name)
	}
	if !modifiable(p, plabel, node) {
		return ErrNoAccess
	}
	child, exists := node.children[oldName]
	if !exists {
		return fmt.Errorf("%w: %s", ErrNotFound, oldName)
	}
	if _, taken := node.children[newName]; taken {
		return fmt.Errorf("%w: %s", ErrExists, newName)
	}
	delete(node.children, oldName)
	node.children[newName] = child
	child.Name = newName
	if n, ok := node.nodes[oldName]; ok {
		delete(node.nodes, oldName)
		node.nodes[newName] = n
	}
	return nil
}

// SetACL replaces the ACL of the named object. As in Multics the ACL
// lives in the containing directory's entry, so the right to change
// it is modify access on that directory.
func (m *Manager) SetACL(p Principal, plabel aim.Label, id Identifier, acl ACL) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, ok := m.byID[id]
	if !ok {
		return ErrNoAccess
	}
	parent := m.parentOf[id]
	if parent == nil {
		// The root's ACL is fixed at initialization.
		return ErrNoAccess
	}
	if !modifiable(p, plabel, parent) {
		return ErrNoAccess
	}
	entry.ACL = acl.Clone()
	return nil
}

// Status returns a copy of the entry for callers with read access to
// the containing directory (the names and attributes of entries are
// the directory's information).
func (m *Manager) Status(p Principal, plabel aim.Label, id Identifier) (Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, ok := m.byID[id]
	if !ok {
		return Entry{}, ErrNoAccess
	}
	parent := m.parentOf[id]
	if parent != nil && !searchable(p, plabel, parent) {
		return Entry{}, ErrNoAccess
	}
	cp := *entry
	cp.ACL = entry.ACL.Clone()
	return cp, nil
}

// handleRelocation is the upward-signal handler: it records the moved
// segment's new disk address in the directory entry, pushes the new
// address into every known segment table, and restores the saved
// process state so the process rereferences the segment.
func (m *Manager) handleRelocation(sig upsignal.Signal) error {
	notice, ok := sig.Args.(knownseg.RelocationNotice)
	if !ok {
		return fmt.Errorf("directory: relocation signal with %T payload", sig.Args)
	}
	m.recordNewAddr(notice.UID, notice.NewAddr)
	if m.Restore != nil && notice.SavedState != nil {
		m.Restore(notice.SavedState)
	}
	return nil
}

// recordNewAddr updates the directory entry (and dependent cached
// names) after a segment moved to a new pack.
func (m *Manager) recordNewAddr(uid uint64, newAddr disk.SegAddr) {
	m.mu.Lock()
	entry, ok := m.byUID[uid]
	if !ok {
		m.mu.Unlock()
		return
	}
	oldAddr := entry.Addr
	entry.Addr = newAddr
	// If the moved segment was a quota directory, every node bound
	// to its cell follows the new name.
	var rebind func(n *dirNode)
	rebind = func(n *dirNode) {
		if n.cell == oldAddr {
			n.cell = newAddr
		}
		for _, c := range n.nodes {
			rebind(c)
		}
	}
	rebind(m.root)
	m.mu.Unlock()
	if m.ksm != nil {
		m.ksm.UpdateAddr(uid, newAddr)
		m.ksm.UpdateCell(oldAddr, newAddr)
	}
}

// DesignateQuota makes a childless directory a quota directory with
// the given limit, transferring the charge for its existing pages
// from the previously governing cell to the new one. The childless
// rule is the paper's semantics change: it is what makes every
// segment's quota-cell binding static.
func (m *Manager) DesignateQuota(p Principal, plabel aim.Label, id Identifier, limit int) error {
	m.mu.Lock()
	entry, ok := m.byID[id]
	if !ok {
		m.mu.Unlock()
		return ErrNoAccess
	}
	node := m.nodeFor(entry)
	if node == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotDir, entry.Name)
	}
	parent := m.parentOf[id]
	if parent == nil {
		m.mu.Unlock()
		return errors.New("directory: root quota is fixed at initialization")
	}
	if !modifiable(p, plabel, parent) {
		m.mu.Unlock()
		return ErrNoAccess
	}
	if len(node.children) > 0 {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s has %d", ErrHasChildren, entry.Name, len(node.children))
	}
	if node.quotaDir {
		m.mu.Unlock()
		return fmt.Errorf("directory: %s is already a quota directory", entry.Name)
	}
	oldCell := node.cell
	addr := entry.Addr
	uid := entry.UID
	m.mu.Unlock()

	// Move the directory's own stored pages from the old cell to
	// the new one. Rebinding the active segment requires a
	// deactivate/reactivate cycle, since the binding is static.
	pack, err := m.packEntry(addr)
	if err != nil {
		return err
	}
	stored := pack.Records()
	if stored > limit {
		return fmt.Errorf("%w: directory already holds %d pages", quota.ErrExceeded, stored)
	}
	if err := m.segs.Deactivate(uid); err != nil && !errors.Is(err, segment.ErrNotActive) {
		return err
	}
	if err := m.cells.InitCell(addr, limit); err != nil {
		return err
	}
	if _, err := m.segs.Activate(uid, addr, addr, true); err != nil {
		return err
	}
	if stored > 0 {
		if err := m.cells.Charge(addr, stored); err != nil {
			return err
		}
		if err := m.releaseFrom(oldCell, stored); err != nil {
			return err
		}
	}
	// The directory's own pages now charge its own cell; record the
	// new governing uid on disk so a salvage recount agrees.
	if err := m.segs.SetGov(addr, uid); err != nil {
		return err
	}
	m.mu.Lock()
	node.quotaDir = true
	node.cell = addr
	node.cellUID = uid
	m.mu.Unlock()
	return nil
}

// QuotaInfo reports the limit and use of a quota directory's cell.
func (m *Manager) QuotaInfo(id Identifier) (limit, used int, err error) {
	m.mu.Lock()
	entry, ok := m.byID[id]
	var node *dirNode
	if ok {
		node = m.nodeFor(entry)
	}
	m.mu.Unlock()
	if !ok || node == nil || !node.quotaDir {
		return 0, 0, fmt.Errorf("directory: not a quota directory")
	}
	if !m.cells.Active(entry.Addr) {
		if err := m.cells.Activate(entry.Addr); err != nil {
			return 0, 0, err
		}
	}
	return m.cells.Info(entry.Addr)
}

// packEntry fetches the table-of-contents entry behind addr.
func (m *Manager) packEntry(addr disk.SegAddr) (disk.TOCEntry, error) {
	// The segment manager's volumes are not exported; reach the
	// entry via a throwaway activation-free read using the quota
	// manager's volume registry is not possible either, so the
	// directory manager carries its own handle in cfg? Instead the
	// segment manager exposes the read below.
	return m.segs.DiskEntry(addr)
}

// releaseFrom releases n pages from a cell, activating it if needed.
func (m *Manager) releaseFrom(cell quota.CellName, n int) error {
	if !m.cells.Active(cell) {
		if err := m.cells.Activate(cell); err != nil {
			return err
		}
	}
	return m.cells.Release(cell, n)
}

// ResolvePathKernel is the buried, pre-kernel-design pathname
// resolver: the entire tree-name expansion runs inside the protected
// supervisor, and the response is only ever the final identifier or a
// bare ErrNoAccess that confirms nothing about the intervening
// directories. It exists for comparison with the user-ring walk built
// on Search.
func (m *Manager) ResolvePathKernel(p Principal, plabel aim.Label, path []string) (Identifier, error) {
	id := m.rootID
	for _, name := range path {
		m.meter.AddBody(ModuleName, bodyResolveKernel, m.Lang)
		m.mu.Lock()
		entry, ok := m.byID[id]
		if !ok {
			m.mu.Unlock()
			return 0, ErrNoAccess
		}
		node := m.nodeFor(entry)
		if node == nil {
			m.mu.Unlock()
			return 0, ErrNoAccess
		}
		child, exists := node.children[name]
		m.mu.Unlock()
		if !exists {
			return 0, ErrNoAccess
		}
		id = child.ID
	}
	// The caller must have some access to the final object, or the
	// answer is the uninformative one.
	m.mu.Lock()
	entry := m.byID[id]
	mode := entry.ACL.ModeFor(p)
	bad := mode == 0 || aim.CheckRead(plabel, entry.Label) != nil && aim.CheckWrite(plabel, entry.Label) != nil
	m.mu.Unlock()
	if bad {
		return 0, ErrNoAccess
	}
	return id, nil
}
