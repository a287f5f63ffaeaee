package knownseg

import (
	"errors"
	"testing"

	"multics/internal/coreseg"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/pageframe"
	"multics/internal/quota"
	"multics/internal/segment"
	"multics/internal/upsignal"
	"multics/internal/vproc"
)

type fixture struct {
	mem     *hw.Memory
	meter   *hw.CostMeter
	vols    *disk.Volumes
	cells   *quota.Manager
	segs    *segment.Manager
	signals *upsignal.Dispatcher
	m       *Manager
	cell    quota.CellName
}

func newFixture(t *testing.T, pageable, packA int) *fixture {
	t.Helper()
	meter := &hw.CostMeter{}
	mem := hw.NewMemory(3 + pageable)
	cm, err := coreseg.NewManager(mem, 3, meter)
	if err != nil {
		t.Fatal(err)
	}
	states, _ := cm.Allocate("vp-states", 4*vproc.StateWords)
	qtable, _ := cm.Allocate("quota-table", hw.PageWords)
	ast, _ := cm.Allocate("ast", hw.PageWords)
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
	segs, err := segment.NewManager(vols, frames, cells, ast, meter)
	if err != nil {
		t.Fatal(err)
	}
	signals := upsignal.NewDispatcher()
	m := NewManager(segs, signals, meter)

	// A quota directory to govern everything.
	dirUID := segs.NewUID()
	cell, err := segs.Create("dska", dirUID, true, dirUID)
	if err != nil {
		t.Fatal(err)
	}
	if err := cells.InitCell(cell, 1000); err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: mem, meter: meter, vols: vols, cells: cells, segs: segs, signals: signals, m: m, cell: cell}
}

// newFile creates a file segment and returns its uid and address.
func (f *fixture) newFile(t *testing.T) (uint64, disk.SegAddr) {
	t.Helper()
	uid := f.segs.NewUID()
	addr, err := f.segs.Create("dska", uid, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return uid, addr
}

func entryFor(uid uint64, addr disk.SegAddr, cell quota.CellName) Entry {
	return Entry{
		UID: uid, Addr: addr, Cell: cell, HasCell: true,
		Access: hw.Read | hw.Write, MaxRing: hw.UserRing, WriteRing: hw.UserRing,
	}
}

func TestMakeKnownAssignsSegnos(t *testing.T) {
	f := newFixture(t, 8, 64)
	k, err := f.m.NewKST(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	uid1, addr1 := f.newFile(t)
	uid2, addr2 := f.newFile(t)
	s1, err := f.m.MakeKnown(k, entryFor(uid1, addr1, f.cell))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.m.MakeKnown(k, entryFor(uid2, addr2, f.cell))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 8 || s2 != 9 {
		t.Errorf("segnos = %d, %d", s1, s2)
	}
	// Making the same segment known again returns the same number.
	again, err := f.m.MakeKnown(k, entryFor(uid1, addr1, f.cell))
	if err != nil || again != s1 {
		t.Errorf("re-MakeKnown = %d, %v", again, err)
	}
	if k.Known() != 2 {
		t.Errorf("Known = %d", k.Known())
	}
	e, err := k.Entry(s1)
	if err != nil || e.UID != uid1 || e.Segno != s1 {
		t.Errorf("Entry(%d) = %+v, %v", s1, e, err)
	}
	if _, err := k.Entry(99); !errors.Is(err, ErrUnknown) {
		t.Errorf("Entry(99): %v", err)
	}
}

func TestKSTCapacity(t *testing.T) {
	f := newFixture(t, 8, 64)
	k, err := f.m.NewKST(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		uid, addr := f.newFile(t)
		if _, err := f.m.MakeKnown(k, entryFor(uid, addr, f.cell)); err != nil {
			t.Fatal(err)
		}
	}
	uid, addr := f.newFile(t)
	if _, err := f.m.MakeKnown(k, entryFor(uid, addr, f.cell)); !errors.Is(err, ErrKSTFull) {
		t.Errorf("MakeKnown on full KST: %v", err)
	}
	// Terminate frees a number for reuse.
	if err := f.m.Terminate(k, 8); err != nil {
		t.Fatal(err)
	}
	if got, err := f.m.MakeKnown(k, entryFor(uid, addr, f.cell)); err != nil || got != 8 {
		t.Errorf("MakeKnown after terminate = %d, %v", got, err)
	}
	if err := f.m.Terminate(k, 99); !errors.Is(err, ErrUnknown) {
		t.Errorf("Terminate(99): %v", err)
	}
	if _, err := f.m.NewKST(-1, 2); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := f.m.NewKST(8, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestServiceMissingSegmentActivatesAndConnects(t *testing.T) {
	f := newFixture(t, 8, 64)
	k, _ := f.m.NewKST(8, 4)
	uid, addr := f.newFile(t)
	segno, err := f.m.MakeKnown(k, entryFor(uid, addr, f.cell))
	if err != nil {
		t.Fatal(err)
	}
	dt := hw.NewDescriptorTable(16)
	if err := f.m.ServiceMissingSegment(k, dt, segno); err != nil {
		t.Fatal(err)
	}
	sdw, err := dt.Get(segno)
	if err != nil || !sdw.Present {
		t.Fatalf("descriptor after service = %+v, %v", sdw, err)
	}
	if sdw.Access != (hw.Read|hw.Write) || sdw.MaxRing != hw.UserRing {
		t.Errorf("connection access = %v ring %d", sdw.Access, sdw.MaxRing)
	}
	// A second process connects to the already active segment.
	k2, _ := f.m.NewKST(8, 4)
	segno2, err := f.m.MakeKnown(k2, entryFor(uid, addr, f.cell))
	if err != nil {
		t.Fatal(err)
	}
	dt2 := hw.NewDescriptorTable(16)
	if err := f.m.ServiceMissingSegment(k2, dt2, segno2); err != nil {
		t.Fatal(err)
	}
	if f.segs.Connections(uid) != 2 {
		t.Errorf("connections = %d", f.segs.Connections(uid))
	}
	if err := f.m.ServiceMissingSegment(k, dt, 99); !errors.Is(err, ErrUnknown) {
		t.Errorf("service of unknown segno: %v", err)
	}
}

func TestQuotaFaultGrowsSegment(t *testing.T) {
	f := newFixture(t, 8, 64)
	k, _ := f.m.NewKST(8, 4)
	uid, addr := f.newFile(t)
	segno, _ := f.m.MakeKnown(k, entryFor(uid, addr, f.cell))
	dt := hw.NewDescriptorTable(16)
	if err := f.m.ServiceMissingSegment(k, dt, segno); err != nil {
		t.Fatal(err)
	}
	if err := f.m.ServiceQuotaFault(k, segno, 0, nil); err != nil {
		t.Fatal(err)
	}
	a, err := f.segs.Lookup(uid)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := a.PageTable().Get(0)
	if !d.Present {
		t.Error("page not present after quota fault service")
	}
	_, used, _ := f.cells.Info(f.cell)
	if used != 1 {
		t.Errorf("quota used = %d", used)
	}
	if err := f.m.ServiceMissingPage(k, 99, 0); !errors.Is(err, ErrUnknown) {
		t.Errorf("missing page on unknown segno: %v", err)
	}
	if err := f.m.ServiceQuotaFault(k, 99, 0, nil); !errors.Is(err, ErrUnknown) {
		t.Errorf("quota fault on unknown segno: %v", err)
	}
}

func TestFullPackRaisesUpwardSignal(t *testing.T) {
	// dska is tiny: growth overflows it and the relocation notice
	// must reach the directory manager via the dispatcher, carrying
	// the saved process state, after the call chain has unwound.
	f := newFixture(t, 16, 3)
	var notices []RelocationNotice
	if err := f.signals.Register(RelocationTarget, func(sig upsignal.Signal) error {
		notices = append(notices, sig.Args.(RelocationNotice))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	k, _ := f.m.NewKST(8, 4)
	uid, addr := f.newFile(t)
	segno, _ := f.m.MakeKnown(k, entryFor(uid, addr, f.cell))
	dt := hw.NewDescriptorTable(16)
	if err := f.m.ServiceMissingSegment(k, dt, segno); err != nil {
		t.Fatal(err)
	}
	a, _ := f.segs.Lookup(uid)
	for i := 0; i < 3; i++ {
		if err := f.m.ServiceQuotaFault(k, segno, i, nil); err != nil {
			t.Fatalf("grow %d: %v", i, err)
		}
		d, _ := a.PageTable().Get(i)
		if err := f.mem.Write(f.mem.FrameBase(d.Frame), hw.Word(50+i)); err != nil {
			t.Fatal(err)
		}
	}
	// This growth overflows dska.
	saved := "process-state-at-fault"
	if err := f.m.ServiceQuotaFault(k, segno, 3, saved); err != nil {
		t.Fatal(err)
	}
	if len(notices) != 0 {
		t.Fatal("handler ran before dispatch: activation records were left behind")
	}
	if n, err := f.signals.Dispatch(); err != nil || n != 1 {
		t.Fatalf("Dispatch = %d, %v", n, err)
	}
	if len(notices) != 1 {
		t.Fatalf("notices = %d", len(notices))
	}
	got := notices[0]
	if got.UID != uid || got.NewAddr.Pack != "dskb" || got.SavedState != saved {
		t.Errorf("notice = %+v", got)
	}
	// The KST entry already carries the new address.
	e, _ := k.Entry(segno)
	if e.Addr != got.NewAddr {
		t.Errorf("KST addr = %v, want %v", e.Addr, got.NewAddr)
	}
	// Reconnection works via the standard missing-segment machinery
	// (the descriptor was severed by the relocation).
	sdw, _ := dt.Get(segno)
	if sdw.Present {
		t.Fatal("descriptor survived relocation")
	}
	if err := f.m.ServiceMissingSegment(k, dt, segno); err != nil {
		t.Fatal(err)
	}
	if f.segs.Connections(uid) != 1 {
		t.Errorf("connections after reconnect = %d", f.segs.Connections(uid))
	}
}

func TestUpdateAddrReachesAllKSTs(t *testing.T) {
	f := newFixture(t, 8, 64)
	k1, _ := f.m.NewKST(8, 4)
	k2, _ := f.m.NewKST(8, 4)
	uid, addr := f.newFile(t)
	s1, _ := f.m.MakeKnown(k1, entryFor(uid, addr, f.cell))
	s2, _ := f.m.MakeKnown(k2, entryFor(uid, addr, f.cell))
	newAddr := disk.SegAddr{Pack: "dskb", TOC: 7}
	f.m.UpdateAddr(uid, newAddr)
	e1, _ := k1.Entry(s1)
	e2, _ := k2.Entry(s2)
	if e1.Addr != newAddr || e2.Addr != newAddr {
		t.Errorf("addrs = %v, %v", e1.Addr, e2.Addr)
	}
	// Dropped KSTs are not updated (and not crashed on).
	f.m.DropKST(k2)
	f.m.UpdateAddr(uid, addr)
	e1, _ = k1.Entry(s1)
	if e1.Addr != addr {
		t.Errorf("addr after second update = %v", e1.Addr)
	}
}

// Dropping the middle of three KSTs moves the last into its place:
// the audit stays clean and relocation updates still reach both
// survivors, while the dropped table is left alone. Dropping it again
// is a no-op.
func TestDropMiddleKST(t *testing.T) {
	f := newFixture(t, 8, 64)
	uid, addr := f.newFile(t)
	ksts := make([]*KST, 3)
	segnos := make([]int, 3)
	for i := range ksts {
		k, err := f.m.NewKST(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if segnos[i], err = f.m.MakeKnown(k, entryFor(uid, addr, f.cell)); err != nil {
			t.Fatal(err)
		}
		ksts[i] = k
	}
	f.m.DropKST(ksts[1])
	f.m.DropKST(ksts[1])
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("audit after dropping the middle KST: %v", bad)
	}
	newAddr := disk.SegAddr{Pack: "dskb", TOC: 7}
	f.m.UpdateAddr(uid, newAddr)
	newCell := quota.CellName{Pack: "dskb", TOC: disk.TOCIndex(42)}
	f.m.UpdateCell(f.cell, newCell)
	for i, k := range ksts {
		e, err := k.Entry(segnos[i])
		if err != nil {
			t.Fatal(err)
		}
		live := i != 1
		if (e.Addr == newAddr) != live || (e.Cell == newCell) != live {
			t.Errorf("KST %d (live %v): addr %v cell %v", i, live, e.Addr, e.Cell)
		}
	}
}
