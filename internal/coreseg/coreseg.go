// Package coreseg implements the core segment manager, the bottom
// module of the Kernel/Multics dependency lattice.
//
// Core segments are the key to breaking map, program and address-space
// dependency loops: they are allocated when the system is initialized
// (by initialization code and the processor hardware) and thereafter
// the only available operations on them are processor read and write.
// Any system module can keep its maps, programs and temporary storage
// in a core segment without fear of creating a dependency loop,
// tempered by the facts the paper lists: the number of core segments
// is fixed, a core segment cannot change size, and core segments are
// permanently resident in primary memory.
//
// The manager owns a prefix of the machine's page frames; the page
// frame manager multiplexes the rest.
package coreseg

import (
	"errors"
	"fmt"

	"multics/internal/hw"
	"multics/internal/lockrank"
)

// ModuleName is this manager's name in the kernel dependency graph:
// the bottom module of the lattice, so its lock ranks below every
// other manager's.
const ModuleName = "core-segment-manager"

// ErrSealed is returned by Allocate after initialization has
// completed: the set of core segments is fixed for the life of the
// system.
var ErrSealed = errors.New("coreseg: allocation sealed after system initialization")

// A Segment is one permanently resident, fixed-size core segment. Its
// only operations are Read and Write, plus PageTable, which exposes
// the wired page table a descriptor table needs to map the segment
// into an address space.
type Segment struct {
	name   string
	base   int // first frame
	frames int
	mem    *hw.Memory
	meter  *hw.CostMeter
	pt     *hw.PageTable
}

// Words reports the segment's fixed size in words.
func (s *Segment) Words() int { return s.frames * hw.PageWords }

// Read returns the word at offset off.
func (s *Segment) Read(off int) (hw.Word, error) {
	if off < 0 || off >= s.Words() {
		return 0, fmt.Errorf("coreseg: read offset %d outside %s of %d words", off, s.name, s.Words())
	}
	s.meter.Add(ModuleName, hw.CycMemRef)
	return s.mem.Read(s.mem.FrameBase(s.base) + off)
}

// Write stores w at offset off.
func (s *Segment) Write(off int, w hw.Word) error {
	if off < 0 || off >= s.Words() {
		return fmt.Errorf("coreseg: write offset %d outside %s of %d words", off, s.name, s.Words())
	}
	s.meter.Add(ModuleName, hw.CycMemRef)
	return s.mem.Write(s.mem.FrameBase(s.base)+off, w)
}

// PageTable returns the segment's wired page table: every descriptor
// is permanently present, so a descriptor table entry built on it can
// never take a missing-page fault.
func (s *Segment) PageTable() *hw.PageTable { return s.pt }

// A Manager allocates core segments from the low end of primary
// memory during system initialization and is then sealed.
type Manager struct {
	mem   *hw.Memory
	meter *hw.CostMeter

	mu     lockrank.Mutex
	next   int // next unallocated frame
	limit  int // frames reserved for core segments
	sealed bool
	segs   map[string]*Segment
	order  []string
}

// NewManager returns a manager that may allocate up to limitFrames
// page frames of mem for core segments.
func NewManager(mem *hw.Memory, limitFrames int, meter *hw.CostMeter) (*Manager, error) {
	if limitFrames <= 0 || limitFrames > mem.Frames() {
		return nil, fmt.Errorf("coreseg: limit of %d frames in a memory of %d", limitFrames, mem.Frames())
	}
	m := &Manager{mem: mem, meter: meter, limit: limitFrames, segs: make(map[string]*Segment)}
	m.mu.Init(ModuleName)
	return m, nil
}

// Allocate creates a core segment of at least words words (rounded up
// to whole frames). It fails after Seal, when memory is exhausted, or
// on a duplicate name.
func (m *Manager) Allocate(name string, words int) (*Segment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		return nil, ErrSealed
	}
	if words <= 0 {
		return nil, fmt.Errorf("coreseg: segment %s of %d words", name, words)
	}
	if _, ok := m.segs[name]; ok {
		return nil, fmt.Errorf("coreseg: segment %s already allocated", name)
	}
	frames := (words + hw.PageWords - 1) / hw.PageWords
	if m.next+frames > m.limit {
		return nil, fmt.Errorf("coreseg: out of wired memory: %s needs %d frames, %d remain", name, frames, m.limit-m.next)
	}
	pt := hw.NewPageTable(frames)
	for i := 0; i < frames; i++ {
		if err := pt.Set(i, hw.PTW{Present: true, Frame: m.next + i}); err != nil {
			return nil, err
		}
	}
	s := &Segment{name: name, base: m.next, frames: frames, mem: m.mem, meter: m.meter, pt: pt}
	m.next += frames
	m.segs[name] = s
	m.order = append(m.order, name)
	return s, nil
}

// Seal ends the allocation phase; it is called at the end of system
// initialization.
func (m *Manager) Seal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sealed = true
}

// Sealed reports whether initialization has completed.
func (m *Manager) Sealed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sealed
}

// Segment returns the allocated segment with the given name.
func (m *Manager) Segment(name string) (*Segment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.segs[name]
	if !ok {
		return nil, fmt.Errorf("coreseg: no segment %s", name)
	}
	return s, nil
}

// Segments returns the names of all core segments in allocation order.
func (m *Manager) Segments() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// FirstPageableFrame reports the first frame the page frame manager
// may multiplex: everything below it is wired. It is the reserve
// limit regardless of how much of the reserve was used, so the split
// is fixed at configuration time.
func (m *Manager) FirstPageableFrame() int { return m.limit }
