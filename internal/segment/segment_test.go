package segment

import (
	"errors"
	"testing"

	"multics/internal/coreseg"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/pageframe"
	"multics/internal/quota"
	"multics/internal/vproc"
)

type fixture struct {
	mem    *hw.Memory
	meter  *hw.CostMeter
	vols   *disk.Volumes
	frames *pageframe.Manager
	cells  *quota.Manager
	m      *Manager
}

// newFixture builds the whole lower kernel: wired memory, virtual
// processors, page frames, quota cells, and the segment manager, with
// two packs ("dska" of packA records, "dskb" of 64).
func newFixture(t *testing.T, pageable, packA int) *fixture {
	t.Helper()
	meter := &hw.CostMeter{}
	mem := hw.NewMemory(3 + pageable)
	cm, err := coreseg.NewManager(mem, 3, meter)
	if err != nil {
		t.Fatal(err)
	}
	states, err := cm.Allocate("vp-states", 4*vproc.StateWords)
	if err != nil {
		t.Fatal(err)
	}
	qtable, err := cm.Allocate("quota-table", hw.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	ast, err := cm.Allocate("ast", hw.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	vps, err := vproc.NewManager(4, states, meter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vps.BindKernel(pageframe.PageWriterModule); err != nil {
		t.Fatal(err)
	}
	frames, err := pageframe.NewManager(mem, cm.FirstPageableFrame(), vps, meter)
	if err != nil {
		t.Fatal(err)
	}
	vols := disk.NewVolumes(meter)
	if _, err := vols.AddPack("dska", packA); err != nil {
		t.Fatal(err)
	}
	if _, err := vols.AddPack("dskb", 64); err != nil {
		t.Fatal(err)
	}
	cells, err := quota.NewManager(vols, qtable, meter)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(vols, frames, cells, ast, meter)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: mem, meter: meter, vols: vols, frames: frames, cells: cells, m: m}
}

// quotaDir creates a quota directory on dska with the given limit and
// returns its uid and cell name.
func (f *fixture) quotaDir(t *testing.T, limit int) (uint64, quota.CellName) {
	t.Helper()
	uid := f.m.NewUID()
	addr, err := f.m.Create("dska", uid, true, uid)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cells.InitCell(addr, limit); err != nil {
		t.Fatal(err)
	}
	return uid, addr
}

// newSeg creates and activates a file segment on dska governed by
// cell.
func (f *fixture) newSeg(t *testing.T, cell quota.CellName) (uint64, *ASTE) {
	t.Helper()
	uid := f.m.NewUID()
	addr, err := f.m.Create("dska", uid, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.m.Activate(uid, addr, cell, true)
	if err != nil {
		t.Fatal(err)
	}
	return uid, a
}

func TestActivateBuildsPageTableFromFileMap(t *testing.T) {
	f := newFixture(t, 4, 64)
	_, cell := f.quotaDir(t, 100)
	uid := f.m.NewUID()
	addr, err := f.m.Create("dska", uid, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	pack, _ := f.vols.Pack("dska")
	rec, err := pack.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	if err := pack.UpdateEntry(addr.TOC, func(e *disk.TOCEntry) error {
		e.Map = []disk.FileMapEntry{
			{State: disk.PageStored, Record: rec},
			{State: disk.PageZero},
			{State: disk.PageUnallocated},
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	a, err := f.m.Activate(uid, addr, cell, true)
	if err != nil {
		t.Fatal(err)
	}
	pt := a.PageTable()
	d0, _ := pt.Get(0)
	d1, _ := pt.Get(1)
	d2, _ := pt.Get(2)
	if d0.Present || d0.QuotaTrap {
		t.Errorf("stored page descriptor = %+v, want plain missing", d0)
	}
	if !d1.QuotaTrap {
		t.Errorf("zero page descriptor = %+v, want quota trap", d1)
	}
	if !d2.QuotaTrap {
		t.Errorf("unallocated page descriptor = %+v, want quota trap", d2)
	}
	if a.Pages() != 3 || a.Dir() || a.UID() != uid {
		t.Errorf("ASTE = pages %d dir %v uid %d", a.Pages(), a.Dir(), a.UID())
	}
}

func TestActivateValidation(t *testing.T) {
	f := newFixture(t, 4, 64)
	_, cell := f.quotaDir(t, 10)
	uid, _ := f.newSeg(t, cell)
	a, err := f.m.Lookup(uid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Activate(uid, a.Addr(), cell, true); err == nil {
		t.Error("double activation succeeded")
	}
	if _, err := f.m.Activate(999, a.Addr(), cell, true); err == nil {
		t.Error("activation with wrong uid succeeded")
	}
	if _, err := f.m.Activate(1000, disk.SegAddr{Pack: "none", TOC: 0}, cell, true); err == nil {
		t.Error("activation on unmounted pack succeeded")
	}
	if _, err := f.m.Lookup(424242); !errors.Is(err, ErrNotActive) {
		t.Errorf("Lookup of inactive: %v", err)
	}
}

func TestGrowChargesQuotaAndStoresRecord(t *testing.T) {
	f := newFixture(t, 4, 64)
	_, cell := f.quotaDir(t, 5)
	uid, a := f.newSeg(t, cell)
	newAddr, err := f.m.Grow(uid, 0, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if newAddr != nil {
		t.Errorf("relocation on non-full pack: %v", newAddr)
	}
	_, used, err := f.cells.Info(cell)
	if err != nil || used != 1 {
		t.Errorf("quota used = %d, %v", used, err)
	}
	pack, _ := f.vols.Pack("dska")
	e, err := pack.Entry(a.Addr().TOC)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Map) != 1 || e.Map[0].State != disk.PageStored {
		t.Errorf("file map = %+v", e.Map)
	}
	d, _ := a.PageTable().Get(0)
	if !d.Present {
		t.Error("grown page not present")
	}
	// Sparse growth: page 4 extends the map with unallocated holes.
	if _, err := f.m.Grow(uid, 4, 8, 4); err != nil {
		t.Fatal(err)
	}
	e, _ = pack.Entry(a.Addr().TOC)
	if len(e.Map) != 5 {
		t.Fatalf("map length = %d", len(e.Map))
	}
	for i := 1; i < 4; i++ {
		if e.Map[i].State != disk.PageUnallocated {
			t.Errorf("hole page %d = %v", i, e.Map[i].State)
		}
	}
	if e.Records() != 2 {
		t.Errorf("Records = %d, want 2 (holes are free)", e.Records())
	}
}

func TestGrowQuotaExceeded(t *testing.T) {
	f := newFixture(t, 8, 64)
	_, cell := f.quotaDir(t, 2)
	uid, _ := f.newSeg(t, cell)
	pack, _ := f.vols.Pack("dska")
	usedBefore := pack.UsedRecords()
	for i := 0; i < 2; i++ {
		if _, err := f.m.Grow(uid, i, 8, i); err != nil {
			t.Fatal(err)
		}
	}
	_, err := f.m.Grow(uid, 2, 8, 2)
	if !errors.Is(err, quota.ErrExceeded) {
		t.Fatalf("grow beyond quota: %v", err)
	}
	if pack.UsedRecords() != usedBefore+2 {
		t.Errorf("record leak: used %d, want %d", pack.UsedRecords(), usedBefore+2)
	}
	_, used, _ := f.cells.Info(cell)
	if used != 2 {
		t.Errorf("quota used = %d after failed growth", used)
	}
}

func TestGrowValidation(t *testing.T) {
	f := newFixture(t, 4, 64)
	_, cell := f.quotaDir(t, 10)
	uid, _ := f.newSeg(t, cell)
	if _, err := f.m.Grow(uid, MaxPages, 8, 0); err == nil {
		t.Error("growth beyond architectural maximum succeeded")
	}
	if _, err := f.m.Grow(uid, -1, 8, 0); err == nil {
		t.Error("negative page accepted")
	}
	if _, err := f.m.Grow(999, 0, 8, 0); !errors.Is(err, ErrNotActive) {
		t.Errorf("grow of inactive segment: %v", err)
	}
	// A segment with no governing cell cannot grow.
	uid2 := f.m.NewUID()
	addr2, err := f.m.Create("dska", uid2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Activate(uid2, addr2, quota.CellName{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Grow(uid2, 0, 8, 0); !errors.Is(err, ErrNoQuotaCell) {
		t.Errorf("grow without cell: %v", err)
	}
	// Growing an already stored page is an error.
	if _, err := f.m.Grow(uid, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Grow(uid, 0, 8, 0); err == nil {
		t.Error("grow of stored page succeeded")
	}
}

func TestMissingPageRoundTrip(t *testing.T) {
	f := newFixture(t, 2, 64) // tiny memory forces eviction
	_, cell := f.quotaDir(t, 10)
	uid, a := f.newSeg(t, cell)
	// Grow page 0 and dirty it.
	if _, err := f.m.Grow(uid, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	d, _ := a.PageTable().Get(0)
	if err := f.mem.Write(f.mem.FrameBase(d.Frame), 1234); err != nil {
		t.Fatal(err)
	}
	// Grow two more pages to evict page 0 (write pattern so they
	// are not zero-evicted).
	for i := 1; i <= 2; i++ {
		if _, err := f.m.Grow(uid, i, 8, i); err != nil {
			t.Fatal(err)
		}
		di, _ := a.PageTable().Get(i)
		if err := f.mem.Write(f.mem.FrameBase(di.Frame), hw.Word(i)); err != nil {
			t.Fatal(err)
		}
	}
	d, _ = a.PageTable().Get(0)
	if d.Present {
		t.Fatal("page 0 still present; eviction did not happen")
	}
	// The standard missing-page service brings it back with data.
	if err := f.m.ServiceMissingPage(uid, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	d, _ = a.PageTable().Get(0)
	if !d.Present {
		t.Fatal("page 0 not present after service")
	}
	w, err := f.mem.Read(f.mem.FrameBase(d.Frame))
	if err != nil {
		t.Fatal(err)
	}
	if w != 1234 {
		t.Errorf("page 0 word = %d, want 1234", w)
	}
	// Missing-page service on a never-grown page is rejected: that
	// must take the quota path.
	if err := f.m.ServiceMissingPage(uid, 9, 8, 9); err == nil {
		t.Error("missing-page service of unallocated page succeeded")
	}
}

func TestZeroPageLifecycle(t *testing.T) {
	f := newFixture(t, 8, 64)
	_, cell := f.quotaDir(t, 10)
	uid, a := f.newSeg(t, cell)
	if _, err := f.m.Grow(uid, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	_, used, _ := f.cells.Info(cell)
	if used != 1 {
		t.Fatalf("used = %d after growth", used)
	}
	// Deactivate while the page is still all zeros: the page-removal
	// scan turns it into a file-map flag and releases the charge.
	if err := f.m.Deactivate(uid); err != nil {
		t.Fatal(err)
	}
	pack, _ := f.vols.Pack("dska")
	e, err := pack.Entry(a.Addr().TOC)
	if err != nil {
		t.Fatal(err)
	}
	if e.Map[0].State != disk.PageZero {
		t.Errorf("file map after zero eviction = %v", e.Map[0].State)
	}
	_, used, _ = f.cells.Info(cell)
	if used != 0 {
		t.Errorf("used = %d after zero eviction, want 0", used)
	}
	// Reactivate: touching the zero page takes the charged path
	// again (the quota-trap bit was set from the file map).
	a2, err := f.m.Activate(uid, a.Addr(), cell, true)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := a2.PageTable().Get(0)
	if !d.QuotaTrap {
		t.Errorf("reactivated zero page descriptor = %+v", d)
	}
	if _, err := f.m.Grow(uid, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	_, used, _ = f.cells.Info(cell)
	if used != 1 {
		t.Errorf("used = %d after re-touch", used)
	}
}

func TestConnectDisconnect(t *testing.T) {
	f := newFixture(t, 4, 64)
	_, cell := f.quotaDir(t, 10)
	uid, a := f.newSeg(t, cell)
	if _, err := f.m.Grow(uid, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	dt := hw.NewDescriptorTable(16)
	if err := f.m.Connect(uid, dt, 8, hw.Read|hw.Write, hw.UserRing, hw.UserRing); err != nil {
		t.Fatal(err)
	}
	if f.m.Connections(uid) != 1 {
		t.Errorf("Connections = %d", f.m.Connections(uid))
	}
	proc := hw.NewProcessor(0, f.mem, f.meter)
	proc.UserDT = dt
	proc.Ring = hw.UserRing
	if err := proc.Write(8, 3, 77); err != nil {
		t.Fatal(err)
	}
	w, err := proc.Read(8, 3)
	if err != nil || w != 77 {
		t.Fatalf("read = %d, %v", w, err)
	}
	if err := f.m.Disconnect(uid); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Read(8, 3); !hw.IsFault(err, hw.FaultMissingSegment) {
		t.Errorf("read after disconnect: %v, want missing-segment fault", err)
	}
	_ = a
}

func TestFullPackRelocation(t *testing.T) {
	// dska has only 6 records; dskb has 64. Growing past 6 pages
	// triggers the full-pack exception and the segment moves.
	f := newFixture(t, 16, 6)
	_, cell := f.quotaDir(t, 100)
	uid, a := f.newSeg(t, cell)
	dt := hw.NewDescriptorTable(16)
	if err := f.m.Connect(uid, dt, 8, hw.Read|hw.Write, hw.UserRing, hw.UserRing); err != nil {
		t.Fatal(err)
	}
	// Fill pages 0..4 with recognizable data (the quota dir's entry
	// occupies no records, so 6 are free; keep one spare, then
	// overflow).
	for i := 0; i < 5; i++ {
		if _, err := f.m.Grow(uid, i, 8, i); err != nil {
			t.Fatalf("grow %d: %v", i, err)
		}
		d, _ := a.PageTable().Get(i)
		if err := f.mem.Write(f.mem.FrameBase(d.Frame), hw.Word(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	packA, _ := f.vols.Pack("dska")
	if packA.FreeRecords() != 1 {
		t.Fatalf("free on dska = %d, fixture assumption broken", packA.FreeRecords())
	}
	if _, err := f.m.Grow(uid, 5, 8, 5); err != nil {
		t.Fatal(err) // takes the last record
	}
	// Dirty page 5 too, or the relocation flush would legitimately
	// zero-collect it and release its charge.
	d5, _ := a.PageTable().Get(5)
	if err := f.mem.Write(f.mem.FrameBase(d5.Frame), 1005); err != nil {
		t.Fatal(err)
	}
	newAddr, err := f.m.Grow(uid, 6, 8, 6)
	if err != nil {
		t.Fatalf("grow with relocation: %v", err)
	}
	if newAddr == nil {
		t.Fatal("no relocation reported on full pack")
	}
	if newAddr.Pack != "dskb" {
		t.Errorf("relocated to %s", newAddr.Pack)
	}
	if a.Addr() != *newAddr {
		t.Errorf("ASTE addr = %v, want %v", a.Addr(), *newAddr)
	}
	// All address spaces were disconnected: the paper's "disconnect
	// all address spaces from the segment".
	if f.m.Connections(uid) != 0 {
		t.Errorf("connections after relocation = %d", f.m.Connections(uid))
	}
	sdw, _ := dt.Get(8)
	if sdw.Present {
		t.Error("descriptor still present after relocation")
	}
	// Old entry is gone; new entry holds all 7 pages.
	if _, err := packA.Entry(disk.TOCIndex(0)); err == nil {
		// entry 0 was the quota dir; the moved segment was entry 1
		if _, err := packA.Entry(disk.TOCIndex(1)); err == nil {
			t.Error("old table-of-contents entry survived relocation")
		}
	}
	packB, _ := f.vols.Pack("dskb")
	e, err := packB.Entry(newAddr.TOC)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Map) != 7 {
		t.Errorf("relocated map has %d pages", len(e.Map))
	}
	// Data survived: service page 0 and check its word.
	if err := f.m.ServiceMissingPage(uid, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	d, _ := a.PageTable().Get(0)
	if !d.Present {
		t.Fatal("page 0 not present")
	}
	w, _ := f.mem.Read(f.mem.FrameBase(d.Frame))
	if w != 1000 {
		t.Errorf("relocated page 0 word = %d, want 1000", w)
	}
	// Quota: 7 pages charged.
	_, used, _ := f.cells.Info(cell)
	if used != 7 {
		t.Errorf("quota used = %d, want 7", used)
	}
}

func TestRelocationOfQuotaDirectoryRebindsCell(t *testing.T) {
	// A quota directory that moves takes its cell with it, and
	// segments bound to the cell follow the new name.
	f := newFixture(t, 16, 4)
	dirUID, cell := f.quotaDir(t, 100)
	dirASTE, err := f.m.Activate(dirUID, cell, cell, true)
	if err != nil {
		t.Fatal(err)
	}
	uid, _ := f.newSeg(t, cell)
	// Fill dska: directory grows its own pages (charged to itself).
	for i := 0; i < 4; i++ {
		if _, err := f.m.Grow(dirUID, i, 4, i); err != nil {
			t.Fatalf("dir grow %d: %v", i, err)
		}
		d, _ := dirASTE.PageTable().Get(i)
		if err := f.mem.Write(f.mem.FrameBase(d.Frame), hw.Word(7+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Next directory growth relocates the directory itself.
	newAddr, err := f.m.Grow(dirUID, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if newAddr == nil {
		t.Fatal("expected relocation of the quota directory")
	}
	newCell, has := dirASTE.QuotaCell()
	if !has || newCell != *newAddr {
		t.Errorf("directory's own cell = %v, want %v", newCell, *newAddr)
	}
	// The file segment's binding followed.
	fileASTE, err := f.m.Lookup(uid)
	if err != nil {
		t.Fatal(err)
	}
	fileCell, _ := fileASTE.QuotaCell()
	if fileCell != *newAddr {
		t.Errorf("file segment cell = %v, want %v", fileCell, *newAddr)
	}
	// Growth of the file still works against the moved cell.
	if _, err := f.m.Grow(uid, 0, 8, 0); err != nil {
		t.Errorf("grow against moved cell: %v", err)
	}
	_, used, err := f.cells.Info(*newAddr)
	if err != nil {
		t.Fatal(err)
	}
	if used != 6 { // 5 directory pages + 1 file page
		t.Errorf("used = %d, want 6", used)
	}
}

func TestDeactivationOrderUnconstrained(t *testing.T) {
	// The 1974 design could never deactivate a directory whose
	// inferiors were active; the redesign has no such constraint.
	f := newFixture(t, 8, 64)
	dirUID, cell := f.quotaDir(t, 50)
	if _, err := f.m.Activate(dirUID, cell, cell, true); err != nil {
		t.Fatal(err)
	}
	fileUID, _ := f.newSeg(t, cell)
	if _, err := f.m.Grow(fileUID, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	// Deactivate the directory FIRST, while its inferior is active.
	if err := f.m.Deactivate(dirUID); err != nil {
		t.Fatalf("deactivating superior with active inferior: %v", err)
	}
	// The inferior still works: growth charges the cell even though
	// the owning directory is inactive.
	if _, err := f.m.Grow(fileUID, 1, 8, 1); err != nil {
		t.Errorf("grow after superior deactivated: %v", err)
	}
	if err := f.m.Deactivate(fileUID); err != nil {
		t.Fatal(err)
	}
	if f.m.ActiveCount() != 0 {
		t.Errorf("ActiveCount = %d", f.m.ActiveCount())
	}
}

func TestDelete(t *testing.T) {
	f := newFixture(t, 8, 64)
	_, cell := f.quotaDir(t, 10)
	uid, a := f.newSeg(t, cell)
	for i := 0; i < 3; i++ {
		if _, err := f.m.Grow(uid, i, 8, i); err != nil {
			t.Fatal(err)
		}
		d, _ := a.PageTable().Get(i)
		if err := f.mem.Write(f.mem.FrameBase(d.Frame), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Flush so the records really exist on disk.
	if err := f.m.Deactivate(uid); err != nil {
		t.Fatal(err)
	}
	a2, err := f.m.Activate(uid, a.Addr(), cell, true)
	if err != nil {
		t.Fatal(err)
	}
	pack, _ := f.vols.Pack("dska")
	usedBefore := pack.UsedRecords()
	if err := f.m.Delete(uid, a2.Addr()); err != nil {
		t.Fatal(err)
	}
	if pack.UsedRecords() != usedBefore-3 {
		t.Errorf("records not freed: %d, want %d", pack.UsedRecords(), usedBefore-3)
	}
	_, used, _ := f.cells.Info(cell)
	if used != 0 {
		t.Errorf("quota used = %d after delete", used)
	}
	if _, err := f.m.Lookup(uid); !errors.Is(err, ErrNotActive) {
		t.Errorf("deleted segment still active: %v", err)
	}
}

// Deleting an active segment gives back the frames of its resident
// pages, and only those: another segment's resident page stays put.
func TestDeleteDropsResidentPages(t *testing.T) {
	f := newFixture(t, 8, 64)
	_, cell := f.quotaDir(t, 10)
	uid, a := f.newSeg(t, cell)
	other, b := f.newSeg(t, cell)
	for i := 0; i < 3; i++ {
		if _, err := f.m.Grow(uid, i, 8, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.m.Grow(other, 0, 9, 0); err != nil {
		t.Fatal(err)
	}
	free := f.frames.FreeFrames()
	if err := f.m.Delete(uid, a.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := f.frames.FreeFrames(); got != free+3 {
		t.Errorf("FreeFrames = %d after delete, want %d", got, free+3)
	}
	if d, _ := b.PageTable().Get(0); !d.Present {
		t.Error("deleting one segment dropped another's page")
	}
	if bad := f.frames.Audit(); len(bad) != 0 {
		t.Errorf("page frame audit after delete: %v", bad)
	}
}

func TestASTCapacity(t *testing.T) {
	f := newFixture(t, 4, 64)
	_, cell := f.quotaDir(t, 1000)
	cap := f.m.Capacity()
	if cap != hw.PageWords/ASTEWords {
		t.Fatalf("Capacity = %d", cap)
	}
	var uids []uint64
	for i := 0; i < cap; i++ {
		uid := f.m.NewUID()
		addr, err := f.m.Create("dskb", uid, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.m.Activate(uid, addr, cell, true); err != nil {
			t.Fatalf("activate %d: %v", i, err)
		}
		uids = append(uids, uid)
	}
	uid := f.m.NewUID()
	addr, err := f.m.Create("dskb", uid, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Activate(uid, addr, cell, true); !errors.Is(err, ErrASTFull) {
		t.Errorf("activation beyond AST capacity: %v", err)
	}
	if err := f.m.Deactivate(uids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Activate(uid, addr, cell, true); err != nil {
		t.Errorf("activation after slot freed: %v", err)
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(nil, nil, nil, nil, nil); err == nil {
		t.Error("nil AST accepted")
	}
}
