package hw

import (
	"errors"
	"testing"
)

// assocFixture is a processor with an associative memory fitted, a
// user descriptor table, and one segment of npages present pages
// (page i in frame i).
type assocFixture struct {
	mem *Memory
	mtr *CostMeter
	p   *Processor
	dt  *DescriptorTable
	pt  *PageTable
}

func newAssocFixture(t *testing.T, npages int) *assocFixture {
	t.Helper()
	f := &assocFixture{
		mem: NewMemory(npages + 2),
		mtr: &CostMeter{},
		dt:  NewDescriptorTable(8),
		pt:  NewPageTable(npages),
	}
	for i := 0; i < npages; i++ {
		if err := f.pt.Set(i, PTW{Present: true, Frame: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.dt.Set(1, SDW{Present: true, Table: f.pt, Access: Read | Write, MaxRing: NRings - 1, WriteRing: NRings - 1}); err != nil {
		t.Fatal(err)
	}
	f.p = NewProcessor(0, f.mem, f.mtr)
	f.p.UserDT = f.dt
	f.p.Assoc = NewAssociativeMemory()
	return f
}

// A repeated reference is answered from the associative memory at the
// hit cost; the first reference walks the tables and fills it.
func TestAssocHitAfterWalk(t *testing.T) {
	f := newAssocFixture(t, 2)
	if _, err := f.p.Read(1, 0); err != nil {
		t.Fatal(err)
	}
	st := f.p.Assoc.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first reference: %+v, want one miss", st)
	}
	before := f.mtr.Cycles()
	if _, err := f.p.Read(1, 5); err != nil {
		t.Fatal(err)
	}
	if got := f.mtr.Cycles() - before; got != CycAssocHit+CycMemRef {
		t.Errorf("hit charged %d cycles, want %d", got, CycAssocHit+CycMemRef)
	}
	st = f.p.Assoc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("after second reference: %+v, want one hit one miss", st)
	}
	count, cycles := f.p.TranslationStats()
	if count != 2 || cycles != CycTableWalk+CycAssocHit {
		t.Errorf("TranslationStats = %d, %d; want 2, %d", count, cycles, CycTableWalk+CycAssocHit)
	}
}

// A hit writes the reference bits through to the page table even
// though the walk is skipped; the eviction clock depends on them.
func TestAssocHitWritesThroughReferenceBits(t *testing.T) {
	f := newAssocFixture(t, 1)
	if _, err := f.p.Read(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.pt.Update(0, func(d *PTW) { d.Used = false; d.Modified = false }); err != nil {
		t.Fatal(err)
	}
	if err := f.p.Write(1, 0, 7); err != nil {
		t.Fatal(err)
	}
	if st := f.p.Assoc.Stats(); st.Hits != 1 {
		t.Fatalf("write was not a cache hit: %+v", st)
	}
	d, err := f.pt.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Used || !d.Modified {
		t.Errorf("PTW after cached write = %+v; want Used and Modified set", d)
	}
}

// A ring change between references must not let a cached SDW grant
// access the new ring may not use: the lookup re-validates the ring
// checks and falls through to the walk, which raises the canonical
// access fault.
func TestAssocRingChangeDoesNotServeStaleSDW(t *testing.T) {
	f := newAssocFixture(t, 1)
	// Kernel-only segment, filled while in ring 0.
	if err := f.dt.Set(2, SDW{Present: true, Table: f.pt, Access: Read, MaxRing: KernelRing, WriteRing: KernelRing}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.p.Read(2, 0); err != nil {
		t.Fatal(err)
	}
	f.p.Ring = UserRing
	_, err := f.p.Read(2, 0)
	var flt *Fault
	if !errors.As(err, &flt) || flt.Kind != FaultAccess {
		t.Fatalf("outer-ring reference after inner-ring fill: err = %v, want access fault", err)
	}
	if st := f.p.Assoc.Stats(); st.Hits != 0 {
		t.Errorf("outer-ring reference hit the cache: %+v", st)
	}

	// Same for the write bracket: readable from ring 4, writable
	// only from ring 0. The read fills; the write must still fault.
	if err := f.dt.Set(3, SDW{Present: true, Table: f.pt, Access: Read | Write, MaxRing: NRings - 1, WriteRing: KernelRing}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.p.Read(3, 0); err != nil {
		t.Fatal(err)
	}
	err = f.p.Write(3, 0, 1)
	if !errors.As(err, &flt) || flt.Kind != FaultAccess {
		t.Fatalf("outer-ring store after read fill: err = %v, want access fault", err)
	}
}

// Once a descriptor is locked (fault service in progress) and the
// shootdown has run, references take the locked-descriptor fault; the
// cache must not serve the old translation.
func TestAssocLockedDescriptorBypassesCache(t *testing.T) {
	f := newAssocFixture(t, 1)
	bus := NewShootdownBus(nil)
	bus.Attach(f.p.Assoc)
	if _, err := f.p.Read(1, 0); err != nil {
		t.Fatal(err)
	}
	// The page frame manager's protocol: update the descriptor,
	// then broadcast before the frame is touched again.
	if _, err := f.pt.Update(0, func(d *PTW) { d.Present = false; d.Frame = 0; d.Lock = true }); err != nil {
		t.Fatal(err)
	}
	bus.InvalidatePTW("page-frame", f.pt, 0)
	_, err := f.p.Read(1, 0)
	var flt *Fault
	if !errors.As(err, &flt) || flt.Kind != FaultLockedDescriptor {
		t.Fatalf("reference to locked descriptor: err = %v, want locked-descriptor fault", err)
	}
	if st := f.p.Assoc.Stats(); st.Hits != 0 {
		t.Errorf("locked reference served from cache: %+v", st)
	}
	if bus.Shootdowns() != 1 {
		t.Errorf("Shootdowns = %d, want 1", bus.Shootdowns())
	}
}

// A shootdown clears the translation on every attached processor, not
// just the broadcaster's.
func TestShootdownClearsAllProcessors(t *testing.T) {
	f := newAssocFixture(t, 2)
	p2 := NewProcessor(1, f.mem, f.mtr)
	p2.UserDT = f.dt
	p2.Assoc = NewAssociativeMemory()
	bus := NewShootdownBus(nil)
	bus.Attach(f.p.Assoc)
	bus.Attach(p2.Assoc)
	for _, p := range []*Processor{f.p, p2} {
		if _, err := p.Read(1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Read(1, 0); err != nil {
			t.Fatal(err)
		}
		if st := p.Assoc.Stats(); st.Hits != 1 {
			t.Fatalf("cpu %d not warmed: %+v", p.ID, st)
		}
	}
	bus.InvalidatePTW("page-frame", f.pt, 0)
	for _, p := range []*Processor{f.p, p2} {
		if _, err := p.Read(1, 0); err != nil {
			t.Fatal(err)
		}
		if st := p.Assoc.Stats(); st.Misses != 2 {
			t.Errorf("cpu %d after shootdown: %+v, want a second miss", p.ID, st)
		}
	}
	// Wildcard: clear every page of the table.
	bus.InvalidatePTW("page-frame", f.pt, -1)
	if _, err := f.p.Read(1, 0); err != nil {
		t.Fatal(err)
	}
	if st := f.p.Assoc.Stats(); st.Misses != 3 {
		t.Errorf("after wildcard shootdown: %+v, want a third miss", st)
	}
}

// A segment shootdown removes the cached SDW so the next reference
// sees the new descriptor.
func TestSDWShootdownSeesNewDescriptor(t *testing.T) {
	f := newAssocFixture(t, 1)
	bus := NewShootdownBus(nil)
	bus.Attach(f.p.Assoc)
	if _, err := f.p.Read(1, 0); err != nil {
		t.Fatal(err)
	}
	// Disconnect, as segment control does on Disconnect.
	if err := f.dt.Clear(1); err != nil {
		t.Fatal(err)
	}
	bus.InvalidateSDW("segment", f.dt, f.dt.Gen(), 1)
	_, err := f.p.Read(1, 0)
	var flt *Fault
	if !errors.As(err, &flt) || flt.Kind != FaultMissingSegment {
		t.Fatalf("reference after disconnect: err = %v, want missing-segment fault", err)
	}
}

// A process switch clears the user entries but keeps the wired system
// entries, and switching to the same table clears nothing.
func TestSwitchUserDTClearsOnlyUserEntries(t *testing.T) {
	f := newAssocFixture(t, 2)
	sysDT := NewDescriptorTable(2)
	sysPT := NewPageTable(1)
	if err := sysPT.Set(0, PTW{Present: true, Frame: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sysDT.Set(0, SDW{Present: true, Table: sysPT, Access: Read | Write, MaxRing: KernelRing, WriteRing: KernelRing}); err != nil {
		t.Fatal(err)
	}
	f.p.SystemDT = sysDT
	f.p.SystemSegMax = 1
	if _, err := f.p.Read(0, 0); err != nil { // system fill
		t.Fatal(err)
	}
	if _, err := f.p.Read(1, 0); err != nil { // user fill
		t.Fatal(err)
	}
	// Same table: no clear.
	f.p.SwitchUserDT(f.dt)
	if st := f.p.Assoc.Stats(); st.Cleared != 0 {
		t.Fatalf("switch to same table cleared %d entries", st.Cleared)
	}
	// New address space: user entries go, system entries stay.
	dt2 := NewDescriptorTable(8)
	if err := dt2.Set(1, SDW{Present: true, Table: f.pt, Access: Read, MaxRing: NRings - 1, WriteRing: NRings - 1}); err != nil {
		t.Fatal(err)
	}
	f.p.SwitchUserDT(dt2)
	if st := f.p.Assoc.Stats(); st.Cleared != 2 {
		t.Fatalf("process switch cleared %d entries, want 2 (SDW and PTW of the user segment)", st.Cleared)
	}
	before := f.p.Assoc.Stats().Hits
	if _, err := f.p.Read(0, 0); err != nil {
		t.Fatal(err)
	}
	if hits := f.p.Assoc.Stats().Hits; hits != before+1 {
		t.Errorf("system entry did not survive the switch: hits %d -> %d", before, hits)
	}
	if _, err := f.p.Read(1, 0); err != nil {
		t.Fatal(err)
	}
	if st := f.p.Assoc.Stats(); st.Misses != 3 {
		t.Errorf("reference through new table: %+v, want a fresh miss", st)
	}
}

// Nil receivers are inert: uncached configurations need no guards.
func TestNilBusAndNilAssoc(t *testing.T) {
	var bus *ShootdownBus
	bus.Attach(NewAssociativeMemory())
	bus.InvalidatePTW("x", NewPageTable(1), 0)
	bus.InvalidateSDW("x", NewDescriptorTable(1), 0, 0)
	if bus.Shootdowns() != 0 {
		t.Error("nil bus counted shootdowns")
	}
	var a *AssociativeMemory
	if st := a.Stats(); st != (AssocMemStats{}) {
		t.Errorf("nil assoc stats = %+v", st)
	}
	if fp := a.Fingerprint(); fp != "assoc: off" {
		t.Errorf("nil assoc fingerprint = %q", fp)
	}
	// A live bus ignores nil attachments and nil tables.
	b := NewShootdownBus(nil)
	b.Attach(nil)
	b.InvalidatePTW("x", nil, 0)
	b.InvalidateSDW("x", nil, 0, 0)
	if b.Shootdowns() != 0 {
		t.Error("nil-table broadcast counted")
	}
}

// Two identical reference sequences leave byte-identical fingerprints:
// the cache state is part of the determinism surface.
func TestAssocFingerprintDeterministic(t *testing.T) {
	run := func() string {
		f := newAssocFixture(t, 2)
		for i := 0; i < 3; i++ {
			if _, err := f.p.Read(1, i%2*PageWords); err != nil {
				t.Fatal(err)
			}
		}
		return f.p.Assoc.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("fingerprints differ:\n%s\nvs\n%s", a, b)
	}
	if a == "" || a == "assoc: off" {
		t.Errorf("fingerprint empty: %q", a)
	}
}

// A translation cached before its page table was reset and reused
// never hits afterwards, although the table pointer, segment number
// and page all match: the reload is a new table to the cache. Nor does
// a shootdown of the new incarnation count the stale entry as cleared.
// The same holds for a descriptor table reset for a new address space,
// which a process switch then treats as a change of table.
func TestAssocStaleEntryOfReusedTableNeverHits(t *testing.T) {
	f := newAssocFixture(t, 2)
	if err := f.mem.Write(f.mem.FrameBase(0), 11); err != nil {
		t.Fatal(err)
	}
	if err := f.mem.Write(f.mem.FrameBase(1), 22); err != nil {
		t.Fatal(err)
	}
	if got, err := f.p.Read(1, 0); err != nil || got != 11 {
		t.Fatalf("first read = %d, %v; want 11", got, err)
	}
	// Reuse the table for another segment whose page 0 is in frame 1.
	f.pt.Reload(1, func(int) PTW { return PTW{Present: true, Frame: 1} }, PTW{})
	st := f.p.Assoc.Stats()
	if got, err := f.p.Read(1, 0); err != nil || got != 22 {
		t.Fatalf("read after reuse = %d, %v; want 22 from the new incarnation's frame", got, err)
	}
	if after := f.p.Assoc.Stats(); after.Hits != st.Hits || after.Misses != st.Misses+1 {
		t.Errorf("read after reuse: %+v then %+v, want one miss and no hit", st, after)
	}
	// The refill replaced the stale entry in its slot; fill the other
	// page's slot, reuse again, and shoot the new incarnation down: the
	// stale entry is not the new table's to clear.
	f.pt.Reload(2, func(p int) PTW { return PTW{Present: true, Frame: p} }, PTW{})
	if _, err := f.p.Read(1, PageWords); err != nil {
		t.Fatal(err)
	}
	f.pt.Reload(2, func(p int) PTW { return PTW{Present: true, Frame: 1 - p} }, PTW{})
	bus := NewShootdownBus(nil)
	bus.Attach(f.p.Assoc)
	before := f.p.Assoc.Stats().Cleared
	bus.InvalidatePTW("test", f.pt, -1)
	if got := f.p.Assoc.Stats().Cleared - before; got != 0 {
		t.Errorf("shootdown of the new incarnation cleared %d stale entries, want 0", got)
	}
	if got, err := f.p.Read(1, PageWords); err != nil || got != 11 {
		t.Errorf("read of page 1 after the second reuse = %d, %v; want 11", got, err)
	}
	// A descriptor table reset and refilled: its cached descriptor
	// misses, and installing it again clears the user entries.
	f.dt.Reset()
	if err := f.dt.Set(1, SDW{Present: true, Table: f.pt, Access: Read | Write, MaxRing: NRings - 1, WriteRing: NRings - 1}); err != nil {
		t.Fatal(err)
	}
	st = f.p.Assoc.Stats()
	if _, err := f.p.Read(1, PageWords); err != nil {
		t.Fatal(err)
	}
	if after := f.p.Assoc.Stats(); after.Hits != st.Hits {
		t.Errorf("descriptor cached before the table's reset hit: %+v then %+v", st, after)
	}
	f.p.SwitchUserDT(f.dt)
	if after := f.p.Assoc.Stats(); after.Cleared == st.Cleared {
		t.Error("installing a reset descriptor table did not clear the user entries")
	}
}

// A disconnection recorded against a descriptor table's earlier
// incarnation — a process destroyed and its table reset for another —
// clears neither the new address space's descriptor nor its cached
// copy.
func TestStaleDisconnectSparesResetTable(t *testing.T) {
	f := newAssocFixture(t, 1)
	old := f.dt.Gen()
	sdw, err := f.dt.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	f.dt.Reset()
	if err := f.dt.Set(1, sdw); err != nil {
		t.Fatal(err)
	}
	f.p.SwitchUserDT(f.dt)
	if _, err := f.p.Read(1, 0); err != nil {
		t.Fatal(err)
	}
	bus := NewShootdownBus(nil)
	bus.Attach(f.p.Assoc)
	if err := f.dt.ClearGen(1, old); err != nil {
		t.Fatal(err)
	}
	bus.InvalidateSDW("segment", f.dt, old, 1)
	if got, err := f.dt.Get(1); err != nil || got != sdw {
		t.Errorf("descriptor after a stale disconnection = %+v, %v; want it kept", got, err)
	}
	st := f.p.Assoc.Stats()
	if _, err := f.p.Read(1, 0); err != nil {
		t.Fatal(err)
	}
	if after := f.p.Assoc.Stats(); after.Hits != st.Hits+1 || after.Cleared != st.Cleared {
		t.Errorf("cached descriptor after a stale shootdown: %+v then %+v, want a hit and nothing cleared", st, after)
	}
	// The current incarnation's disconnection takes effect.
	if err := f.dt.ClearGen(1, f.dt.Gen()); err != nil {
		t.Fatal(err)
	}
	bus.InvalidateSDW("segment", f.dt, f.dt.Gen(), 1)
	if _, err := f.p.Read(1, 0); err == nil {
		t.Error("reference through a disconnected descriptor succeeded")
	}
	if err := f.dt.ClearGen(8, 0); err == nil {
		t.Error("ClearGen outside the table succeeded")
	}
}
