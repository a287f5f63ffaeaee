package pageframe

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"multics/internal/coreseg"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/trace"
	"multics/internal/vproc"
)

// tablePages is the logical length of the tests' page tables, the
// architectural maximum segment length; a table materializes only the
// pages a test touches.
const tablePages = 256

type fixture struct {
	mem   *hw.Memory
	m     *Manager
	vps   *vproc.Manager
	pack  *disk.Pack
	meter *hw.CostMeter
	rec   *trace.Recorder
}

// newFixture builds an untraced machine with `pageable` pageable
// frames and one pack of 64 records.
func newFixture(t *testing.T, pageable int) *fixture {
	t.Helper()
	return newFixtureWith(t, pageable, false)
}

// newFixtureWith is newFixture; when traced, the manager is built with
// a recorder (f.rec) stamped from the fixture's meter.
func newFixtureWith(t *testing.T, pageable int, traced bool) *fixture {
	t.Helper()
	meter := &hw.CostMeter{}
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(64, meter)
	}
	mem := hw.NewMemory(1 + pageable)
	cm, err := coreseg.NewManager(mem, 1, meter)
	if err != nil {
		t.Fatal(err)
	}
	states, err := cm.Allocate("vp-states", 4*vproc.StateWords)
	if err != nil {
		t.Fatal(err)
	}
	vps, err := vproc.NewManager(4, states, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vps.BindKernel(PageWriterModule); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(mem, cm.FirstPageableFrame(), vps, meter, rec)
	if err != nil {
		t.Fatal(err)
	}
	vols := disk.NewVolumes(meter, nil)
	pack, err := vols.AddPack("dska", 64)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: mem, m: m, vps: vps, pack: pack, meter: meter, rec: rec}
}

// storedPage allocates a record holding a recognizable pattern and
// returns it.
func (f *fixture) storedPage(t *testing.T, tag hw.Word) disk.RecordAddr {
	t.Helper()
	r, err := f.pack.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]hw.Word, hw.PageWords)
	buf[0] = tag
	if err := f.pack.WriteRecord(r, buf); err != nil {
		t.Fatal(err)
	}
	return r
}

func frameWord(t *testing.T, mem *hw.Memory, pt *hw.PageTable, page, off int) hw.Word {
	t.Helper()
	d, err := pt.Get(page)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Present {
		t.Fatalf("page %d not present", page)
	}
	w, err := mem.Read(mem.FrameBase(d.Frame) + off)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLoadPageFromRecord(t *testing.T) {
	f := newFixture(t, 4)
	rec := f.storedPage(t, 77)
	pt := hw.NewPageTable(1)
	ev, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: rec, HasRecord: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Errorf("evictions on empty memory: %v", ev)
	}
	if got := frameWord(t, f.mem, pt, 0, 0); got != 77 {
		t.Errorf("loaded word = %d, want 77", got)
	}
	if faults := f.m.Stats().Faults; faults != 1 {
		t.Errorf("faults = %d", faults)
	}
}

func TestLoadPageZeroFill(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(1)
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	if got := frameWord(t, f.mem, pt, 0, 5); got != 0 {
		t.Errorf("zero page holds %d", got)
	}
}

func TestLoadPageAlreadyPresent(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(1)
	if err := pt.Set(0, hw.PTW{Present: true, Frame: 1, Lock: true}); err != nil {
		t.Fatal(err)
	}
	free := f.m.FreeFrames()
	ev, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack}, nil)
	if err != nil || len(ev) != 0 {
		t.Fatalf("LoadPage = %v, %v", ev, err)
	}
	if f.m.FreeFrames() != free {
		t.Error("present page consumed a frame")
	}
	d, _ := pt.Get(0)
	if d.Lock {
		t.Error("descriptor still locked after degenerate service")
	}
}

func TestAddPageAllocatesRecordAndZeroFrame(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(tablePages)
	used := f.pack.UsedRecords()
	rec, ev, err := f.m.AddPage(PageReq{UID: 9, PT: pt, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Errorf("unexpected evictions %v", ev)
	}
	if f.pack.UsedRecords() != used+1 {
		t.Error("no record allocated")
	}
	_ = rec
	d, err := pt.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Present || !d.Modified || d.QuotaTrap {
		t.Errorf("descriptor after AddPage = %+v", d)
	}
	if got := frameWord(t, f.mem, pt, 0, 0); got != 0 {
		t.Errorf("new page holds %d", got)
	}
}

// TestAddPageKeepLocked pins the claimed-descriptor discipline the
// quota-growth path depends on: a KeepLocked AddPage publishes the
// page with the lock bit held, evictors pass it over no matter the
// pressure, and only the caller's Unlock releases it. Without this a
// concurrent eviction could zero-reclaim the fresh page before the
// grower records it in the file map.
func TestAddPageKeepLocked(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(tablePages)
	req := PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack, KeepLocked: true}
	if _, _, err := f.m.AddPage(req, nil); err != nil {
		t.Fatal(err)
	}
	d, err := pt.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Present || !d.Lock {
		t.Fatalf("descriptor after KeepLocked AddPage = %+v, want present and locked", d)
	}

	// Exhaust memory: every pageable frame is demanded while the
	// claimed page is ineligible.
	for i := 0; i < 6; i++ {
		other := hw.NewPageTable(tablePages)
		if _, _, err := f.m.AddPage(PageReq{UID: uint64(i + 2), PT: other, Page: 0, Pack: f.pack}, nil); err != nil {
			t.Fatal(err)
		}
	}
	d, _ = pt.Get(0)
	if !d.Present || !d.Lock {
		t.Fatalf("claimed page lost under pressure: %+v", d)
	}

	f.m.Unlock(req)
	d, _ = pt.Get(0)
	if d.Lock {
		t.Error("descriptor still locked after Unlock")
	}
	// Released, the page is an ordinary eviction candidate again.
	for i := 0; i < 6; i++ {
		other := hw.NewPageTable(tablePages)
		if _, _, err := f.m.AddPage(PageReq{UID: uint64(i + 20), PT: other, Page: 0, Pack: f.pack}, nil); err != nil {
			t.Fatal(err)
		}
	}
	d, _ = pt.Get(0)
	if d.Present {
		t.Error("unlocked page never evicted under full pressure")
	}
}

func TestAddPageFullPackReturnsUpTheChain(t *testing.T) {
	f := newFixture(t, 4)
	for f.pack.FreeRecords() > 0 {
		if _, err := f.pack.AllocRecord(); err != nil {
			t.Fatal(err)
		}
	}
	pt := hw.NewPageTable(tablePages)
	free := f.m.FreeFrames()
	_, _, err := f.m.AddPage(PageReq{UID: 9, PT: pt, Page: 0, Pack: f.pack}, nil)
	if !errors.Is(err, disk.ErrPackFull) {
		t.Fatalf("AddPage on full pack: %v, want ErrPackFull", err)
	}
	if f.m.FreeFrames() != free {
		t.Error("failed AddPage leaked a frame")
	}
	if d, _ := pt.Get(0); d != (hw.PTW{}) {
		t.Errorf("failed AddPage left descriptor %+v", d)
	}
}

func TestEvictionWritesBackDirtyPage(t *testing.T) {
	f := newFixture(t, 2) // only two pageable frames
	f.m.FrameBatch = 1    // single-victim semantics under test
	// Fill both frames with dirty pages.
	var pts []*hw.PageTable
	var recs []disk.RecordAddr
	for i := 0; i < 2; i++ {
		pt := hw.NewPageTable(tablePages)
		rec, _, err := f.m.AddPage(PageReq{UID: uint64(i + 1), PT: pt, Page: 0, Pack: f.pack}, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := pt.Get(0)
		if err := f.mem.Write(f.mem.FrameBase(d.Frame), hw.Word(100+i)); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
		recs = append(recs, rec)
	}
	// A third page forces an eviction.
	pt3 := hw.NewPageTable(tablePages)
	_, ev, err := f.m.AddPage(PageReq{UID: 3, PT: pt3, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 {
		t.Fatalf("evictions = %v, want one", ev)
	}
	if ev[0].Zero {
		t.Error("dirty page reported zero")
	}
	victim := int(ev[0].UID) - 1
	// The victim's descriptor is now not-present and its contents
	// are on disk.
	d, _ := pts[victim].Get(0)
	if d.Present {
		t.Error("victim descriptor still present")
	}
	buf := make([]hw.Word, hw.PageWords)
	if err := f.pack.ReadRecord(recs[victim], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != hw.Word(100+victim) {
		t.Errorf("written-back word = %d, want %d", buf[0], 100+victim)
	}
	// Reloading the victim restores its contents.
	if _, err := f.m.LoadPage(PageReq{UID: ev[0].UID, PT: pts[victim], Page: 0, Pack: f.pack, Record: recs[victim], HasRecord: true}, nil); err != nil {
		t.Fatal(err)
	}
	if got := frameWord(t, f.mem, pts[victim], 0, 0); got != hw.Word(100+victim) {
		t.Errorf("reloaded word = %d", got)
	}
}

func TestZeroPageEvictionFreesRecordAndSetsQuotaTrap(t *testing.T) {
	f := newFixture(t, 1)
	pt1 := hw.NewPageTable(tablePages)
	// Add a page and leave it all zeros.
	_, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt1, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	used := f.pack.UsedRecords()
	// Force eviction with a second page.
	pt2 := hw.NewPageTable(tablePages)
	_, ev, err := f.m.AddPage(PageReq{UID: 2, PT: pt2, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || !ev[0].Zero || !ev[0].FreedRecord {
		t.Fatalf("evictions = %+v, want one zero eviction with freed record", ev)
	}
	if f.pack.UsedRecords() != used { // -1 zero freed, +1 new page
		t.Errorf("used records = %d, want %d", f.pack.UsedRecords(), used)
	}
	d, _ := pt1.Get(0)
	if d.Present || !d.QuotaTrap {
		t.Errorf("zero-evicted descriptor = %+v, want quota trap set", d)
	}
	if zeros := f.m.Stats().ZeroEvictions; zeros != 1 {
		t.Errorf("zeroEvictions = %d", zeros)
	}
}

// evictStored loads a stored page holding tag into the fixture's one
// pageable frame, lets store run against it, and evicts it by loading
// another stored page. It returns the page's eviction report, table and
// record, and the disk mutations the eviction made.
func evictStored(t *testing.T, f *fixture, tag hw.Word, store func(pt *hw.PageTable)) (Evicted, *hw.PageTable, disk.RecordAddr, int) {
	t.Helper()
	rec := f.storedPage(t, tag)
	other := f.storedPage(t, 66)
	pt := hw.NewPageTable(1)
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: rec, HasRecord: true}, nil); err != nil {
		t.Fatal(err)
	}
	store(pt)
	plan := &disk.FaultPlan{}
	f.pack.SetFaultPlan(plan)
	ev, err := f.m.LoadPage(PageReq{UID: 2, PT: hw.NewPageTable(1), Page: 0, Pack: f.pack, Record: other, HasRecord: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.vps.RunPending()
	f.pack.SetFaultPlan(nil)
	if len(ev) != 1 || ev[0].UID != 1 {
		t.Fatalf("evictions = %+v, want page 1/0", ev)
	}
	return ev[0], pt, rec, plan.Mutations()
}

// recordWord reads word 0 of a record.
func recordWord(t *testing.T, f *fixture, rec disk.RecordAddr) hw.Word {
	t.Helper()
	buf := make([]hw.Word, hw.PageWords)
	if err := f.pack.ReadRecord(rec, buf); err != nil {
		t.Fatal(err)
	}
	return buf[0]
}

// TestCleanEvictionWritesNothing: a page not stored to since it was
// read in leaves memory without a disk mutation, inline or through the
// page-writer, is reported like a written-back page, and its record
// still reads back its contents.
func TestCleanEvictionWritesNothing(t *testing.T) {
	for _, daemons := range []bool{false, true} {
		f := newFixture(t, 1)
		f.m.Daemons = daemons
		ev, pt, rec, n := evictStored(t, f, 77, func(*hw.PageTable) {})
		if ev.Zero || ev.FreedRecord || ev.Record != rec {
			t.Errorf("daemons=%v: eviction = %+v, want a non-zero page keeping record %d", daemons, ev, rec)
		}
		if n != 0 {
			t.Errorf("daemons=%v: clean eviction made %d disk mutations, want 0", daemons, n)
		}
		if d, _ := pt.Get(0); d.Present || d.QuotaTrap {
			t.Errorf("daemons=%v: evicted descriptor = %+v", daemons, d)
		}
		if got := recordWord(t, f, rec); got != 77 {
			t.Errorf("daemons=%v: record reads %d, want 77", daemons, got)
		}
		if f.m.Writing(f.pack, rec) {
			t.Errorf("daemons=%v: clean eviction left its record marked in flight", daemons)
		}
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: rec, HasRecord: true}, nil); err != nil {
			t.Fatal(err)
		}
		if got := frameWord(t, f.mem, pt, 0, 0); got != 77 {
			t.Errorf("daemons=%v: reloaded word = %d, want 77", daemons, got)
		}
	}
}

// TestModifiedEvictionWritesBack: a page stored to after it was read
// in is still written back.
func TestModifiedEvictionWritesBack(t *testing.T) {
	for _, daemons := range []bool{false, true} {
		f := newFixture(t, 1)
		f.m.Daemons = daemons
		ev, _, rec, n := evictStored(t, f, 77, func(pt *hw.PageTable) {
			d, err := pt.Update(0, func(d *hw.PTW) { d.Modified = true })
			if err != nil {
				t.Fatal(err)
			}
			if err := f.mem.Write(f.mem.FrameBase(d.Frame), 78); err != nil {
				t.Fatal(err)
			}
		})
		if ev.Zero || ev.FreedRecord {
			t.Errorf("daemons=%v: eviction = %+v, want a written-back page", daemons, ev)
		}
		if n != 1 {
			t.Errorf("daemons=%v: modified eviction made %d disk mutations, want its one write", daemons, n)
		}
		if got := recordWord(t, f, rec); got != 78 {
			t.Errorf("daemons=%v: record reads %d, want the stored 78", daemons, got)
		}
	}
}

// TestCleanZeroPageStillReclaimed: the zero scan comes before the
// modified bit, so a clean page that reads all zeros still frees its
// record and sets its quota trap.
func TestCleanZeroPageStillReclaimed(t *testing.T) {
	f := newFixture(t, 1)
	used := f.pack.UsedRecords() + 2 // the zero page's record and the other's
	ev, pt, _, n := evictStored(t, f, 0, func(*hw.PageTable) {})
	if !ev.Zero || !ev.FreedRecord {
		t.Fatalf("eviction = %+v, want a zero page with its record freed", ev)
	}
	if got := f.pack.UsedRecords(); got != used-1 {
		t.Errorf("used records = %d, want %d", got, used-1)
	}
	if n != 1 {
		t.Errorf("zero reclaim made %d disk mutations, want its one free", n)
	}
	if d, _ := pt.Get(0); d.Present || !d.QuotaTrap {
		t.Errorf("zero-evicted descriptor = %+v, want quota trap set", d)
	}
	if zeros := f.m.Stats().ZeroEvictions; zeros != 1 {
		t.Errorf("zeroEvictions = %d, want 1", zeros)
	}
}

func TestDaemonWriteBack(t *testing.T) {
	f := newFixture(t, 1)
	f.m.Daemons = true
	pt1 := hw.NewPageTable(tablePages)
	rec, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt1, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := pt1.Get(0)
	if err := f.mem.Write(f.mem.FrameBase(d.Frame), 55); err != nil {
		t.Fatal(err)
	}
	before := f.vps.Dispatches()
	pt2 := hw.NewPageTable(tablePages)
	if _, _, err := f.m.AddPage(PageReq{UID: 2, PT: pt2, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	if f.vps.Dispatches() == before {
		t.Error("daemon mode did not dispatch the page-writer")
	}
	buf := make([]hw.Word, hw.PageWords)
	if err := f.pack.ReadRecord(rec, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 55 {
		t.Errorf("daemon write-back lost data: %d", buf[0])
	}
}

// TestDaemonWriteBackSnapshotSurvivesFrameReuse pins why a daemon
// write-back copies the victim's contents: the page-writer runs only
// after the victim's frame has been filled with another page. With one
// pageable frame, faulting in page B evicts dirty page A and reads B's
// record into A's old frame before the page-writer runs; A must still
// fault back with its own value.
func TestDaemonWriteBackSnapshotSurvivesFrameReuse(t *testing.T) {
	f := newFixture(t, 1)
	f.m.Daemons = true
	ptA := hw.NewPageTable(tablePages)
	recA, _, err := f.m.AddPage(PageReq{UID: 1, PT: ptA, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ptA.Get(0)
	frame := d.Frame
	if err := f.mem.Write(f.mem.FrameBase(frame), 55); err != nil {
		t.Fatal(err)
	}
	recB := f.storedPage(t, 66)
	ptB := hw.NewPageTable(1)
	ev, err := f.m.LoadPage(PageReq{UID: 2, PT: ptB, Page: 0, Pack: f.pack, Record: recB, HasRecord: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].UID != 1 || ev[0].Zero {
		t.Fatalf("evictions = %+v, want page A written back", ev)
	}
	if d, _ := ptB.Get(0); d.Frame != frame {
		t.Fatalf("page B in frame %d, want A's old frame %d", d.Frame, frame)
	}
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: ptA, Page: 0, Pack: f.pack, Record: recA, HasRecord: true}, nil); err != nil {
		t.Fatal(err)
	}
	if got := frameWord(t, f.mem, ptA, 0, 0); got != 55 {
		t.Errorf("page A faulted back with %d, want its own 55", got)
	}
}

// TestWarmFaultAllocatesLittle pins the host cost of the fault path: a
// warm cycle of demand reads, each evicting a dirty page whose
// write-back goes through the page-writer, allocates under 16 bytes
// per fault. Records move straight between disk and frame, write-back
// batches, their snapshots and the demand reads' tickets are recycled,
// and the eviction reports go into a buffer the caller owns.
func TestWarmFaultAllocatesLittle(t *testing.T) {
	const frames, pages = 8, 16
	f := newFixture(t, frames)
	f.m.Daemons = true
	pt := hw.NewPageTable(pages)
	recs := make([]disk.RecordAddr, pages)
	for i := range recs {
		recs[i] = f.storedPage(t, hw.Word(i+1))
	}
	fault := func(page int) {
		if d, _ := pt.Get(page); d.Present {
			return
		}
		var evicted [DefaultFrameBatch]Evicted
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: page, Pack: f.pack, Record: recs[page], HasRecord: true}, evicted[:0]); err != nil {
			t.Fatal(err)
		}
		// A store's modified bit: a clean page would leave without
		// the write-back under test.
		if _, err := pt.Update(page, func(d *hw.PTW) { d.Modified = true }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*pages; i++ { // warm up
		fault(i % pages)
	}
	const n = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fault(i % pages)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B per warm fault", per)
	if per >= 16 {
		t.Errorf("a warm fault allocated %d bytes, want under 16", per)
	}
	for page := range recs {
		if d, _ := pt.Get(page); d.Present {
			if got := frameWord(t, f.mem, pt, page, 0); got != hw.Word(page+1) {
				t.Errorf("page %d holds %d, want %d", page, got, page+1)
			}
		}
	}
}

func TestDaemonModeCostsMore(t *testing.T) {
	// The paper: using dedicated processes required memory
	// management to call process management, a small but
	// unavoidable cost.
	run := func(daemons bool) int64 {
		f := newFixture(t, 1)
		f.m.Daemons = daemons
		start := f.meter.Snapshot()
		pt := hw.NewPageTable(tablePages)
		if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack}, nil); err != nil {
			t.Fatal(err)
		}
		d, _ := pt.Get(0)
		if err := f.mem.Write(f.mem.FrameBase(d.Frame), 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			pt2 := hw.NewPageTable(tablePages)
			if _, _, err := f.m.AddPage(PageReq{UID: uint64(i + 2), PT: pt2, Page: 0, Pack: f.pack}, nil); err != nil {
				t.Fatal(err)
			}
			d, _ := pt2.Get(0)
			if err := f.mem.Write(f.mem.FrameBase(d.Frame), hw.Word(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		return f.meter.Since(start)
	}
	inline := run(false)
	daemon := run(true)
	if daemon <= inline {
		t.Errorf("daemon organization cost %d cycles <= inline %d; want a small extra cost", daemon, inline)
	}
	if daemon > inline*3/2 {
		t.Errorf("daemon organization cost %d vs inline %d: should be small, not >50%%", daemon, inline)
	}
}

func TestWaitUnlock(t *testing.T) {
	f := newFixture(t, 2)
	pt := hw.NewPageTable(1)
	// Not locked: returns immediately.
	if err := f.m.WaitUnlock(nil, pt, 0); err != nil {
		t.Fatal(err)
	}
	// Locked: blocks until service completes.
	if err := pt.Set(0, hw.PTW{Lock: true}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	done := make(chan error, 1)
	go func() {
		defer wg.Done()
		done <- f.m.WaitUnlock(nil, pt, 0)
	}()
	rec := f.storedPage(t, 5)
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: rec, HasRecord: true, NotifySeg: 8, NotifyPage: 0}, nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	d, _ := pt.Get(0)
	if d.Lock || !d.Present {
		t.Errorf("descriptor after service = %+v", d)
	}
}

func TestReleaseSegment(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(tablePages)
	var recs []disk.RecordAddr
	for i := 0; i < 3; i++ {
		rec, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: i, Pack: f.pack}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	// Dirty page 1; pages 0 and 2 stay zero.
	d, _ := pt.Get(1)
	if err := f.mem.Write(f.mem.FrameBase(d.Frame), 9); err != nil {
		t.Fatal(err)
	}
	ev, err := f.m.ReleaseSegment(pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 3 {
		t.Fatalf("reports = %+v, want 3", ev)
	}
	zeros, stored := 0, 0
	for _, e := range ev {
		if e.Zero {
			zeros++
		} else {
			stored++
		}
	}
	if zeros != 2 || stored != 1 {
		t.Errorf("zeros=%d stored=%d", zeros, stored)
	}
	if f.m.FreeFrames() != 4 {
		t.Errorf("FreeFrames = %d after release", f.m.FreeFrames())
	}
	buf := make([]hw.Word, hw.PageWords)
	if err := f.pack.ReadRecord(recs[1], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Errorf("released dirty page word = %d", buf[0])
	}
}

func TestDropPage(t *testing.T) {
	f := newFixture(t, 2)
	pt := hw.NewPageTable(tablePages)
	if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	free := f.m.FreeFrames()
	f.m.DropPages(pt, 0)
	if f.m.FreeFrames() != free+1 {
		t.Error("DropPages did not free the frame")
	}
	d, _ := pt.Get(0)
	if d.Present {
		t.Error("dropped page still present")
	}
	// Dropping a table with nothing resident is a no-op.
	f.m.DropPages(pt, 0)
}

// DropPages(pt, k) is truncation to k pages: it drops the resident
// pages and speculations numbered k or above, and leaves every page
// below k, resident or speculative, where it was.
func TestDropPagesFrom(t *testing.T) {
	f := newFixture(t, 8)
	pt := hw.NewPageTable(5)
	other := hw.NewPageTable(tablePages)
	recs := []disk.RecordAddr{f.storedPage(t, 50), f.storedPage(t, 51), f.storedPage(t, 52)}
	// Page 0 resident, pages 1 and 2 parked in the read-ahead cache.
	if _, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead:    [ReadAheadWindow]ReadAheadPage{{Page: 1, Record: recs[1]}, {Page: 2, Record: recs[2]}},
		ReadAheadLen: 2,
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Pages 3 and 4 resident, and one page of another table.
	for _, page := range []int{4, 3} {
		if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: page, Pack: f.pack}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := f.m.AddPage(PageReq{UID: 2, PT: other, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	free := f.m.FreeFrames()
	f.m.DropPages(pt, 2)
	// Two resident pages and one speculation gave their frames back.
	if got := f.m.FreeFrames(); got != free+3 {
		t.Errorf("FreeFrames = %d, want %d", got, free+3)
	}
	for page := 0; page < 5; page++ {
		d, _ := pt.Get(page)
		if want := page == 0; d.Present != want {
			t.Errorf("page %d present = %v, want %v", page, d.Present, want)
		}
	}
	if d, _ := other.Get(0); !d.Present {
		t.Error("another table's page was dropped")
	}
	if st := f.m.Stats(); st.PrefetchDrops != 1 {
		t.Errorf("prefetch drops = %d, want 1 (page 2 only)", st.PrefetchDrops)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after DropPages: %v", bad)
	}
	// Page 1's speculation survived: its fault is a hit.
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 1, Pack: f.pack, Record: recs[1], HasRecord: true}, nil); err != nil {
		t.Fatal(err)
	}
	if st := f.m.Stats(); st.PrefetchHits != 1 {
		t.Errorf("prefetch hits = %d, want 1: the speculation below the cut was withdrawn", st.PrefetchHits)
	}
}

func TestClockGivesSecondChance(t *testing.T) {
	f := newFixture(t, 2)
	f.m.FrameBatch = 1 // single-victim semantics under test
	ptA := hw.NewPageTable(tablePages)
	ptB := hw.NewPageTable(tablePages)
	if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: ptA, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.m.AddPage(PageReq{UID: 2, PT: ptB, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	// Mark A referenced, leave B unreferenced.
	if _, err := ptA.Update(0, func(d *hw.PTW) { d.Used = true }); err != nil {
		t.Fatal(err)
	}
	if _, err := ptB.Update(0, func(d *hw.PTW) { d.Used = false }); err != nil {
		t.Fatal(err)
	}
	ptC := hw.NewPageTable(tablePages)
	_, ev, err := f.m.AddPage(PageReq{UID: 3, PT: ptC, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].UID != 2 {
		t.Errorf("evicted %+v, want the unreferenced page of segment 2", ev)
	}
}

func TestPLIBodyCostsMoreThanASM(t *testing.T) {
	run := func(lang hw.Language) int64 {
		f := newFixture(t, 4)
		f.m.Lang = lang
		start := f.meter.Snapshot()
		pt := hw.NewPageTable(tablePages)
		for i := 0; i < 4; i++ {
			if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: i, Pack: f.pack}, nil); err != nil {
				t.Fatal(err)
			}
		}
		return f.meter.Since(start)
	}
	asm, pli := run(hw.ASM), run(hw.PLI)
	if pli <= asm {
		t.Errorf("PL/I body %d cycles <= assembly %d", pli, asm)
	}
}

func TestNewManagerValidation(t *testing.T) {
	mem := hw.NewMemory(2)
	if _, err := NewManager(mem, 2, nil, nil, nil); err == nil {
		t.Error("manager with no pageable memory accepted")
	}
	if _, err := NewManager(mem, -1, nil, nil, nil); err == nil {
		t.Error("negative first frame accepted")
	}
	if _, err := (&Manager{}).LoadPage(PageReq{}, nil); err == nil {
		t.Error("LoadPage with nil page table succeeded")
	}
	if _, _, err := (&Manager{}).AddPage(PageReq{}, nil); err == nil {
		t.Error("AddPage with nil page table succeeded")
	}
}

func TestWaitUnlockWakeupWaitingWindow(t *testing.T) {
	// Service completes between the fault and WaitUnlock: the
	// waiter must not hang.
	f := newFixture(t, 2)
	proc := hw.NewProcessor(0, f.mem, f.meter)
	f.vps.RegisterProcessor(proc)
	pt := hw.NewPageTable(1)
	if err := pt.Set(0, hw.PTW{}); err != nil {
		t.Fatal(err)
	}
	dt := hw.NewDescriptorTable(16)
	if err := dt.Set(8, hw.SDW{Present: true, Table: pt, Access: hw.Read, MaxRing: hw.UserRing}); err != nil {
		t.Fatal(err)
	}
	proc.UserDT = dt
	proc.Ring = hw.UserRing
	proc.DescriptorLockHW = true
	// Fault: sets lock bit, loads the locked-descriptor register.
	_, err := proc.Read(8, 0)
	if f, ok := err.(*hw.Fault); !ok || f.Kind != hw.FaultMissingPage {
		t.Fatalf("read: %v", err)
	}
	// Another agent services the fault before this processor waits.
	rec := f.storedPage(t, 3)
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: rec, HasRecord: true, NotifySeg: 8, NotifyPage: 0}, nil); err != nil {
		t.Fatal(err)
	}
	// WaitUnlock returns promptly (descriptor no longer locked).
	if err := f.m.WaitUnlock(proc, pt, 0); err != nil {
		t.Fatal(err)
	}
	if w, err := proc.Read(8, 0); err != nil || w != 3 {
		t.Errorf("reference after wait = %d, %v", w, err)
	}
}

func TestEvictionWriteFailureLeaksNoFrames(t *testing.T) {
	// A failed grouped write-back must not strand its victims'
	// frames: they were disconnected and shot down, so they belong
	// on the free list, not in limbo.
	f := newFixture(t, 4)
	for i := 0; i < 4; i++ {
		pt := hw.NewPageTable(tablePages)
		if _, _, err := f.m.AddPage(PageReq{UID: uint64(i + 1), PT: pt, Page: 0, Pack: f.pack}, nil); err != nil {
			t.Fatal(err)
		}
		d, _ := pt.Get(0)
		if err := f.mem.Write(f.mem.FrameBase(d.Frame), hw.Word(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	f.pack.SetFaultPlan(&disk.FaultPlan{Rules: []disk.Rule{{Op: disk.OpWrite, Permanent: true}}})
	pt := hw.NewPageTable(tablePages)
	if _, _, err := f.m.AddPage(PageReq{UID: 9, PT: pt, Page: 0, Pack: f.pack}, nil); !errors.Is(err, disk.ErrPermanent) {
		t.Fatalf("AddPage over failing disk: %v, want ErrPermanent", err)
	}
	if free := f.m.FreeFrames(); free != 4 {
		t.Errorf("free frames after failed eviction = %d, want all 4 victims recovered", free)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after failed eviction: %v", bad)
	}
	if n := f.m.Stats().WriteBackErrors; n != 1 {
		t.Errorf("write-back errors = %d, want 1", n)
	}
	// With the device healthy again every frame is allocatable.
	f.pack.SetFaultPlan(nil)
	for i := 0; i < 4; i++ {
		pt := hw.NewPageTable(tablePages)
		if _, _, err := f.m.AddPage(PageReq{UID: uint64(20 + i), PT: pt, Page: 0, Pack: f.pack}, nil); err != nil {
			t.Fatalf("AddPage %d after recovery: %v", i, err)
		}
	}
}

func TestEvictionMidBatchFailureReinstatesUnreachedVictims(t *testing.T) {
	// When the write-back pass dies partway through a batch, victims
	// it never reached are still resident and mapped — they must go
	// back in the in-use table, not leak.
	f := newFixture(t, 2)
	f.m.FrameBatch = 2
	// First frame: a recordless zero-fill page that is then dirtied;
	// evicting it fails (a dirty page must have a record).
	ptA := hw.NewPageTable(1)
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: ptA, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	dA, _ := ptA.Get(0)
	if err := f.mem.Write(f.mem.FrameBase(dA.Frame), 11); err != nil {
		t.Fatal(err)
	}
	// Second frame: an ordinary dirty page with a record.
	recB := f.storedPage(t, 22)
	ptB := hw.NewPageTable(1)
	if _, err := f.m.LoadPage(PageReq{UID: 2, PT: ptB, Page: 0, Pack: f.pack, Record: recB, HasRecord: true}, nil); err != nil {
		t.Fatal(err)
	}
	dB, _ := ptB.Get(0)
	if err := f.mem.Write(f.mem.FrameBase(dB.Frame), 33); err != nil {
		t.Fatal(err)
	}
	// A third page forces a two-victim pass that dies on the first.
	pt3 := hw.NewPageTable(1)
	if _, err := f.m.LoadPage(PageReq{UID: 3, PT: pt3, Page: 0, Pack: f.pack}, nil); err == nil {
		t.Fatal("evicting a dirty recordless page should fail")
	}
	if free := f.m.FreeFrames(); free != 1 {
		t.Errorf("free frames = %d, want 1 (the disconnected victim's)", free)
	}
	if got := frameWord(t, f.mem, ptB, 0, 0); got != 33 {
		t.Errorf("unreached victim's page holds %d, want 33", got)
	}
	if ev := f.m.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1 (reinstated victim uncounted)", ev)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after mid-batch failure: %v", bad)
	}
}

func TestZeroEvictionRevalidatesAfterShootdown(t *testing.T) {
	// The zero-page verdict is sampled before the victim's descriptor
	// comes down, but a reference on another processor that translated
	// through a cached PTW may legitimately store into the frame until
	// the shootdown broadcast returns. The evictor must re-scan after
	// the broadcast: such a page is not zero — its record survives, the
	// quota trap comes off, and the store is written back rather than
	// silently discarded.
	f := newFixture(t, 1)
	bus := hw.NewShootdownBus(nil)
	assoc := hw.NewAssociativeMemory()
	bus.Attach(assoc)
	f.m.Bus = bus

	ptA := hw.NewPageTable(tablePages)
	recA, _, err := f.m.AddPage(PageReq{UID: 1, PT: ptA, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dA, _ := ptA.Get(0)
	frame := dA.Frame

	// A "processor" mid-reference: it holds its reference lock, so the
	// shootdown broadcast cannot return until it finishes. It waits for
	// the evictor to take the descriptor down — proof the zero scan
	// already ran — then lands a store through its stale translation.
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		assoc.HoldReference(func() {
			close(ready) // reference lock is held from here on
			for {
				d, err := ptA.Get(0)
				if err != nil {
					done <- err
					return
				}
				if !d.Present {
					break
				}
				runtime.Gosched()
			}
			done <- f.mem.Write(f.mem.FrameBase(frame)+3, 99)
		})
	}()

	// Demand the only frame: page A is evicted while the reference is
	// in flight.
	<-ready
	ptB := hw.NewPageTable(tablePages)
	_, evs, err := f.m.AddPage(PageReq{UID: 2, PT: ptB, Page: 0, Pack: f.pack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("evictions = %+v, want one", evs)
	}
	if evs[0].Zero || evs[0].FreedRecord {
		t.Fatalf("eviction = %+v: racing store classified zero and its record freed", evs[0])
	}
	d, _ := ptA.Get(0)
	if d.Present || d.QuotaTrap {
		t.Errorf("descriptor after revalidated eviction = %+v, want not-present without quota trap", d)
	}
	if z := f.m.Stats().ZeroEvictions; z != 0 {
		t.Errorf("zeroEvictions = %d, want 0", z)
	}
	// The store survived to disk and a reload sees it.
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: ptA, Page: 0, Pack: f.pack, Record: recA, HasRecord: true}, nil); err != nil {
		t.Fatal(err)
	}
	if got := frameWord(t, f.mem, ptA, 0, 3); got != 99 {
		t.Errorf("reloaded word = %d, want the store that raced the zero scan (99)", got)
	}
}

func TestDaemonWriteBackErrorIsCounted(t *testing.T) {
	// In daemon mode the evicting caller cannot see a write-back
	// failure — the counter and the write-error event must record it.
	f := newFixtureWith(t, 1, true)
	f.m.Daemons = true
	rec := f.rec
	pt1 := hw.NewPageTable(tablePages)
	if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt1, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	d, _ := pt1.Get(0)
	if err := f.mem.Write(f.mem.FrameBase(d.Frame), 55); err != nil {
		t.Fatal(err)
	}
	f.pack.SetFaultPlan(&disk.FaultPlan{Rules: []disk.Rule{{Op: disk.OpWrite, Permanent: true}}})
	pt2 := hw.NewPageTable(tablePages)
	if _, _, err := f.m.AddPage(PageReq{UID: 2, PT: pt2, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	if n := f.m.Stats().WriteBackErrors; n != 1 {
		t.Errorf("write-back errors = %d, want 1", n)
	}
	found := false
	for _, e := range rec.Events() {
		if e.Kind == trace.EvWriteError {
			if e.Arg0 != 1 {
				t.Errorf("write-error event reports %d pages, want 1", e.Arg0)
			}
			found = true
		}
	}
	if !found {
		t.Error("no write-error event in the trace")
	}
}
