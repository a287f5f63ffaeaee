package coreseg

import (
	"errors"
	"testing"

	"multics/internal/hw"
)

func newManager(t *testing.T, memFrames, limit int) *Manager {
	t.Helper()
	m, err := NewManager(hw.NewMemory(memFrames), limit, &hw.CostMeter{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllocateReadWrite(t *testing.T) {
	m := newManager(t, 8, 4)
	s, err := m.Allocate("vp-states", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.Segment("vp-states"); got != s || err != nil {
		t.Errorf("Segment(vp-states) = %p, %v; want %p", got, err, s)
	}
	if s.Words() != hw.PageWords {
		t.Errorf("Words = %d, want one frame rounded up", s.Words())
	}
	if err := s.Write(10, 42); err != nil {
		t.Fatal(err)
	}
	w, err := s.Read(10)
	if err != nil {
		t.Fatal(err)
	}
	if w != 42 {
		t.Errorf("read back %d", w)
	}
	if _, err := s.Read(s.Words()); err == nil {
		t.Error("read past end succeeded")
	}
	if err := s.Write(-1, 0); err == nil {
		t.Error("write before start succeeded")
	}
}

func TestSegmentsAreDisjoint(t *testing.T) {
	m := newManager(t, 8, 4)
	a, err := m.Allocate("a", hw.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Allocate("b", hw.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0, 2); err != nil {
		t.Fatal(err)
	}
	wa, _ := a.Read(0)
	wb, _ := b.Read(0)
	if wa != 1 || wb != 2 {
		t.Errorf("segments overlap: a=%d b=%d", wa, wb)
	}
}

func TestSealStopsAllocation(t *testing.T) {
	m := newManager(t, 8, 4)
	if m.Sealed() {
		t.Error("sealed before Seal")
	}
	if _, err := m.Allocate("early", 10); err != nil {
		t.Fatal(err)
	}
	m.Seal()
	if !m.Sealed() {
		t.Error("not sealed after Seal")
	}
	if _, err := m.Allocate("late", 10); !errors.Is(err, ErrSealed) {
		t.Errorf("allocation after seal: %v, want ErrSealed", err)
	}
	// Existing segments remain readable and writable: the only
	// operations available after initialization.
	s, err := m.Segment("early")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, 7); err != nil {
		t.Errorf("write after seal: %v", err)
	}
}

func TestWiredLimit(t *testing.T) {
	m := newManager(t, 8, 2)
	if _, err := m.Allocate("a", 2*hw.PageWords); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate("b", 1); err == nil {
		t.Error("allocation beyond wired limit succeeded")
	}
	if m.FirstPageableFrame() != 2 {
		t.Errorf("FirstPageableFrame = %d", m.FirstPageableFrame())
	}
}

func TestDuplicateAndBadSizes(t *testing.T) {
	m := newManager(t, 8, 4)
	if _, err := m.Allocate("x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate("x", 1); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := m.Allocate("y", 0); err == nil {
		t.Error("zero-size segment accepted")
	}
	if _, err := m.Segment("nope"); err == nil {
		t.Error("lookup of unknown segment succeeded")
	}
	got := m.Segments()
	if len(got) != 1 || got[0] != "x" {
		t.Errorf("Segments = %v", got)
	}
}

func TestNewManagerValidation(t *testing.T) {
	mem := hw.NewMemory(4)
	if _, err := NewManager(mem, 0, nil); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := NewManager(mem, 5, nil); err == nil {
		t.Error("limit beyond memory accepted")
	}
}

func TestPageTableIsWired(t *testing.T) {
	m := newManager(t, 8, 4)
	s, err := m.Allocate("maps", 2*hw.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	pt := s.PageTable()
	if pt.Len() != 2 {
		t.Errorf("page table has %d entries", pt.Len())
	}
	for i := 0; i < pt.Len(); i++ {
		d, err := pt.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Present {
			t.Errorf("descriptor %d not present: core segments are permanently resident", i)
		}
	}
	// The page table really maps the segment: a processor reference
	// through it reaches the same words Segment.Write stored.
	if err := s.Write(hw.PageWords+3, 99); err != nil {
		t.Fatal(err)
	}
	dt := hw.NewDescriptorTable(4)
	if err := dt.Set(0, hw.SDW{Present: true, Table: pt, Access: hw.Read | hw.Write, MaxRing: 0, WriteRing: 0}); err != nil {
		t.Fatal(err)
	}
	p := hw.NewProcessor(0, memOf(t, m), nil)
	p.UserDT = dt
	w, err := p.Read(0, hw.PageWords+3)
	if err != nil {
		t.Fatal(err)
	}
	if w != 99 {
		t.Errorf("processor read %d through page table, want 99", w)
	}
}

// memOf digs the memory out for the processor-mapping test.
func memOf(t *testing.T, m *Manager) *hw.Memory {
	t.Helper()
	return m.mem
}
