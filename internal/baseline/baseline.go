// Package baseline implements the 1974-vintage Multics supervisor
// structure the kernel design project started from: one monolithic
// body of code in which page control, segment control, address space
// control, directory control and process control share writable data
// directly and depend on one another in loops.
//
// It is not a strawman: it provides the same user-visible functions as
// the redesigned kernel (hierarchy, ACLs, quota, growth, full-pack
// handling, demand paging), implemented with the structures the paper
// attributes to the old system:
//
//   - a global page-table lock, with interpretive retranslation of the
//     faulting virtual address after the lock is captured, because the
//     hardware has no descriptor lock bit (page control must therefore
//     know the format of, and depend on the correctness of, the
//     translation tables maintained by segment control and address
//     space control);
//
//   - quota limits and counts kept in directory entries, located on
//     every segment growth by a dynamic upward search through the
//     active segment table, whose entries are threaded parent-ward to
//     mirror the directory hierarchy — so a directory can never be
//     deactivated while inferior segments are active;
//
//   - full-disk-pack handling in which segment control reads a data
//     base maintained by address space control to find the directory
//     entry and updates that entry directly;
//
//   - pathname resolution buried entirely inside the supervisor; and
//
//   - quota-directory designation allowed at any time, children or
//     not — the flexible semantics whose implementation cost the
//     paper's redesign trades away.
//
// Its declared dependency structure (see graphs.go) reproduces
// Figures 2 and 3: nearly linear from afar, looped up close.
package baseline

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"multics/internal/disk"
	"multics/internal/hw"
)

// MaxPages is the architectural maximum segment length in pages.
const MaxPages = 256

// Simulated algorithm-body costs. The 1974 supervisor is largely
// PL/I but its memory manager hot paths are assembly (the redesign
// recoded them in PL/I, at the factor-of-two instruction cost the
// paper reports).
const (
	bodyFaultService = 150 // page fault service proper (assembly)
	bodyRetranslate  = 60  // interpretive retranslation under the global lock
	bodyQuotaHop     = 25  // one hop of the upward quota search
	bodyResolve      = 150 // one component of in-kernel path resolution
)

// Errors mirroring the user-visible semantics.
var (
	ErrNoAccess        = errors.New("baseline: no access")
	ErrExists          = errors.New("baseline: name already exists")
	ErrNotEmpty        = errors.New("baseline: directory not empty")
	ErrQuotaExceeded   = errors.New("baseline: record quota overflow")
	ErrActiveInferiors = errors.New("baseline: directory has active inferior segments")
)

// An entry is one directory entry. Quota limit and count live right
// here, in the entry, as the old system kept them.
type entry struct {
	name  string
	uid   uint64
	addr  disk.SegAddr
	isDir bool
	acl   map[string]hw.AccessMode // principal pattern -> mode
	// Quota fields, meaningful when isQuotaDir.
	isQuotaDir bool
	quotaLimit int
	quotaUsed  int
	// dir is the in-memory directory body for isDir entries.
	dir *dirBody
	// parent backlink: the shared data segment control reads to
	// find and update entries directly.
	parent *dirBody
}

type dirBody struct {
	self     *entry
	children map[string]*entry
}

// An aste is an active-segment-table entry, threaded parent-ward:
// the shape of the AST must mirror the hierarchy so the quota search
// can climb it.
type aste struct {
	uid      uint64
	ent      *entry
	pt       *hw.PageTable
	parent   *aste // superior directory's AST entry (always present)
	inferior int   // count of active inferiors; blocks deactivation
	mapLen   int
	conns    []conn
}

type conn struct {
	dt    *hw.DescriptorTable
	segno int
}

// A Process is a baseline user process (one-level implementation:
// the supervisor schedules these directly).
type Process struct {
	id        uint64
	principal string
	dt        *hw.DescriptorTable
	segs      map[int]*aste // segno -> active segment (the baseline KST)
	next      int
	ready     bool
	cpu       int64
}

// ID returns the process id.
func (p *Process) ID() uint64 { return p.id }

// DT returns the process's descriptor table.
func (p *Process) DT() *hw.DescriptorTable { return p.dt }

// Config parameterizes BootBaseline.
type Config struct {
	MemFrames   int
	WiredFrames int
	Packs       []struct {
		ID      string
		Records int
	}
	RootQuota int
}

// DefaultConfig returns a machine comparable to core.DefaultConfig.
func DefaultConfig() Config {
	c := Config{MemFrames: 96, WiredFrames: 8, RootQuota: 512}
	c.Packs = append(c.Packs, struct {
		ID      string
		Records int
	}{"dska", 1024}, struct {
		ID      string
		Records int
	}{"dskb", 1024})
	return c
}

// A Supervisor is a booted baseline system.
type Supervisor struct {
	Meter *hw.CostMeter
	Mem   *hw.Memory
	Vols  *disk.Volumes
	CPUs  []*hw.Processor

	// The global page-table lock of 1974 page control.
	global sync.Mutex

	mu      sync.Mutex
	root    *dirBody
	ast     map[uint64]*aste
	nextUID uint64
	nextPID uint64
	procs   map[uint64]*Process
	ready   []uint64

	firstFrame int
	frames     []frameInfo
	free       []int
	clock      int

	// Instrumentation for the comparisons.
	Retranslations int64
	QuotaWalkHops  int64
	faults         int64
	evictions      int64
	swaps          int64
}

type frameInfo struct {
	inUse bool
	a     *aste
	page  int
}

// BootBaseline builds a baseline supervisor.
func BootBaseline(cfg Config) (*Supervisor, error) {
	if cfg.MemFrames <= cfg.WiredFrames {
		return nil, fmt.Errorf("baseline: %d frames with %d wired", cfg.MemFrames, cfg.WiredFrames)
	}
	if len(cfg.Packs) == 0 {
		return nil, errors.New("baseline: no packs")
	}
	s := &Supervisor{
		Meter:      &hw.CostMeter{},
		ast:        make(map[uint64]*aste),
		procs:      make(map[uint64]*Process),
		nextUID:    1,
		nextPID:    1,
		firstFrame: cfg.WiredFrames,
	}
	s.Mem = hw.NewMemory(cfg.MemFrames)
	s.Vols = disk.NewVolumes(s.Meter, nil)
	for _, p := range cfg.Packs {
		if _, err := s.Vols.AddPack(p.ID, p.Records); err != nil {
			return nil, err
		}
	}
	s.frames = make([]frameInfo, cfg.MemFrames-cfg.WiredFrames)
	for f := cfg.MemFrames - 1; f >= cfg.WiredFrames; f-- {
		s.free = append(s.free, f)
	}
	// The root directory, a quota directory.
	rootPack, err := s.Vols.Pack(cfg.Packs[0].ID)
	if err != nil {
		return nil, err
	}
	// The baseline keeps quota in directory entries, not in the pack
	// tables of contents, so no governing uid is recorded (zero).
	uid := s.newUID()
	idx, err := rootPack.CreateEntry(uid, true, 0)
	if err != nil {
		return nil, err
	}
	rootEnt := &entry{
		name: "", uid: uid, addr: disk.SegAddr{Pack: rootPack.ID(), TOC: idx},
		isDir: true, isQuotaDir: true, quotaLimit: cfg.RootQuota,
		acl: map[string]hw.AccessMode{"*": hw.Read | hw.Write | hw.Execute},
	}
	rootEnt.dir = &dirBody{self: rootEnt, children: make(map[string]*entry)}
	s.root = rootEnt.dir
	if _, err := s.activate(rootEnt); err != nil {
		return nil, err
	}
	// Two CPUs without the descriptor-lock addition.
	for i := 0; i < 2; i++ {
		cpu := hw.NewProcessor(i, s.Mem, s.Meter)
		cpu.DescriptorLockHW = false
		cpu.Ring = hw.UserRing
		s.CPUs = append(s.CPUs, cpu)
	}
	return s, nil
}

func (s *Supervisor) newUID() uint64 {
	u := s.nextUID
	s.nextUID++
	return u
}

// Stats reports fault, eviction, retranslation and quota-walk counts.
func (s *Supervisor) Stats() (faults, evictions, retranslations, quotaHops int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults, s.evictions, s.Retranslations, s.QuotaWalkHops
}

// aclAllows applies the entry's ACL to a principal.
func aclAllows(e *entry, principal string, want hw.AccessMode) bool {
	if m, ok := e.acl[principal]; ok {
		return m.Has(want)
	}
	if m, ok := e.acl["*"]; ok {
		return m.Has(want)
	}
	return false
}

// ResolvePath is the buried in-kernel resolver: the only naming
// interface the baseline offers. It answers "found" or ErrNoAccess,
// nothing in between.
func (s *Supervisor) ResolvePath(principal, path string) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveLocked(principal, path)
}

func (s *Supervisor) resolveLocked(principal, path string) (*entry, error) {
	cur := s.root
	parts := splitPath(path)
	for i, name := range parts {
		s.Meter.AddBody(ModDirCtl, bodyResolve, hw.PLI)
		child, ok := cur.children[name]
		if !ok {
			return nil, ErrNoAccess
		}
		if i == len(parts)-1 {
			if !aclAllows(child, principal, 0) && aclModeFor(child, principal) == 0 {
				return nil, ErrNoAccess
			}
			return child, nil
		}
		if !child.isDir {
			return nil, ErrNoAccess
		}
		cur = child.dir
	}
	// Empty path names the root.
	return cur.self, nil
}

func aclModeFor(e *entry, principal string) hw.AccessMode {
	if m, ok := e.acl[principal]; ok {
		return m
	}
	return e.acl["*"]
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, ">") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// Create makes a file or directory at path (all but the last
// component must exist). The caller needs write access to the
// containing directory.
func (s *Supervisor) Create(principal, path string, isDir bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := splitPath(path)
	if len(parts) == 0 {
		return errors.New("baseline: empty path")
	}
	dirEnt := s.root.self
	if len(parts) > 1 {
		var err error
		dirEnt, err = s.resolveLocked(principal, strings.Join(parts[:len(parts)-1], ">"))
		if err != nil {
			return err
		}
		if !dirEnt.isDir {
			return ErrNoAccess
		}
	}
	if !aclAllows(dirEnt, principal, hw.Write) {
		return ErrNoAccess
	}
	name := parts[len(parts)-1]
	if _, ok := dirEnt.dir.children[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	pack, err := s.Vols.Pack(dirEnt.addr.Pack)
	if err != nil {
		return err
	}
	uid := s.newUID()
	idx, err := pack.CreateEntry(uid, isDir, 0)
	if err != nil {
		return err
	}
	child := &entry{
		name: name, uid: uid, addr: disk.SegAddr{Pack: pack.ID(), TOC: idx},
		isDir: isDir, parent: dirEnt.dir,
		acl: map[string]hw.AccessMode{principal: hw.Read | hw.Write | hw.Execute},
	}
	if isDir {
		child.dir = &dirBody{self: child, children: make(map[string]*entry)}
	}
	dirEnt.dir.children[name] = child
	return nil
}

// SetACL replaces an object's ACL (write access to the containing
// directory required).
func (s *Supervisor) SetACL(principal, path string, acl map[string]hw.AccessMode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.resolveLocked(principal, path)
	if err != nil {
		return err
	}
	if e.parent == nil || !aclAllows(e.parent.self, principal, hw.Write) {
		return ErrNoAccess
	}
	e.acl = acl
	return nil
}

// SetQuota designates (or adjusts) a quota directory — at ANY time,
// children active or not: the 1974 semantics whose implementation
// cost is the dynamic upward search on every growth.
func (s *Supervisor) SetQuota(principal, path string, limit int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.resolveLocked(principal, path)
	if err != nil {
		return err
	}
	if !e.isDir {
		return ErrNoAccess
	}
	if !aclAllows(e, principal, hw.Write) {
		return ErrNoAccess
	}
	e.isQuotaDir = true
	e.quotaLimit = limit
	return nil
}

// List returns the names in a directory.
func (s *Supervisor) List(principal, path string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.resolveLocked(principal, path)
	if err != nil {
		return nil, err
	}
	if !e.isDir || !aclAllows(e, principal, hw.Read) {
		return nil, ErrNoAccess
	}
	var names []string
	for n := range e.dir.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
