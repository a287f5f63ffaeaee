package salvage_test

import (
	"fmt"
	"testing"

	"multics/internal/core"
	"multics/internal/coreseg"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/pageframe"
	"multics/internal/quota"
	"multics/internal/salvage"
	"multics/internal/segment"
	"multics/internal/uproc"
	"multics/internal/vproc"
	"multics/internal/workload"
)

// machine is the lower kernel: memory, virtual processors, page
// frames, quota cells, two packs and the segment manager.
type machine struct {
	vols   *disk.Volumes
	frames *pageframe.Manager
	cells  *quota.Manager
	segs   *segment.Manager
}

func newMachine(t *testing.T) *machine {
	t.Helper()
	meter := &hw.CostMeter{}
	mem := hw.NewMemory(3 + 16)
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
	vps, err := vproc.NewManager(4, states, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vps.BindKernel(pageframe.PageWriterModule); err != nil {
		t.Fatal(err)
	}
	frames, err := pageframe.NewManager(mem, cm.FirstPageableFrame(), vps, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	vols := disk.NewVolumes(meter, nil)
	if _, err := vols.AddPack("dska", 24); err != nil {
		t.Fatal(err)
	}
	if _, err := vols.AddPack("dskb", 96); err != nil {
		t.Fatal(err)
	}
	cells, err := quota.NewManager(vols, qtable, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := segment.NewManager(vols, frames, cells, ast, meter)
	if err != nil {
		t.Fatal(err)
	}
	return &machine{vols: vols, frames: frames, cells: cells, segs: segs}
}

// TestSalvageNoDirtyPacks: fresh packs are not dirty, so salvage scans
// none of them and repairs nothing.
func TestSalvageNoDirtyPacks(t *testing.T) {
	m := newMachine(t)
	rep, err := salvage.Run(m.vols, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packs) != 0 || !rep.Clean() {
		t.Errorf("fresh packs salvaged: %v", rep)
	}
}

// TestCrashPointSweep crashes the relocation workload
// (workload.PackOverflow) through the shared crash path at every disk
// mutation of its run, remounts the packs in a fresh registry and
// salvages them: salvage must restore the workload's contract, and a
// second pass must repair nothing. The catalogue crash loop
// (workload's TestCatalogueCrashPoints) checks a full reboot of every
// scenario, but visits every crash point only under the nightly
// budget; this keeps every crash point of the relocations in each
// run.
func TestCrashPointSweep(t *testing.T) {
	s := workload.PackOverflow(64)
	base := &disk.FaultPlan{}
	if _, err := workload.Crash(s, core.DefaultConfig(), uproc.SimExecutor{Seed: 1977}, base); err != nil {
		t.Fatal(err)
	}
	for at := 1; at <= base.Mutations(); at++ {
		t.Run(fmt.Sprintf("crash-at-%d", at), func(t *testing.T) {
			plan := &disk.FaultPlan{CrashAtMutation: at}
			packs, err := workload.Crash(s, core.DefaultConfig(), uproc.SimExecutor{Seed: 1977}, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Crashed() {
				t.Fatalf("plan armed at mutation %d never crashed", at)
			}
			vols := disk.NewVolumes(&hw.CostMeter{}, nil)
			for _, p := range packs {
				if err := vols.Mount(p); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := salvage.Run(vols, nil, false); err != nil {
				t.Fatal(err)
			}
			if err := s.Contract(vols); err != nil {
				t.Errorf("contract broken after salvage: %v", err)
			}
			rerun, err := salvage.Run(vols, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rerun.Clean() {
				t.Errorf("second salvage pass repaired:\n%v", rerun)
			}
		})
	}
}

// TestSalvageRepairsCraftedDamage drives each repair class directly:
// an orphaned record, a claimed-but-free record, a duplicate claim, a
// duplicate entry pair, and a miscounted quota cell.
func TestSalvageRepairsCraftedDamage(t *testing.T) {
	meter := &hw.CostMeter{}
	vols := disk.NewVolumes(meter, nil)
	pa, err := vols.AddPack("dska", 32)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := vols.AddPack("dskb", 32)
	if err != nil {
		t.Fatal(err)
	}

	// A quota directory (uid 1, governing itself) with one stored,
	// correctly counted page.
	dirIdx, err := pa.CreateEntry(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirRec, err := pa.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.UpdateEntry(dirIdx, func(e *disk.TOCEntry) error {
		e.Map = []disk.FileMapEntry{{State: disk.PageStored, Record: dirRec}}
		e.Quota = disk.QuotaCell{Valid: true, Limit: 100, Used: 40} // wrong: recount will say otherwise
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A file (uid 2) with two pages: page 0 stored, page 1 claiming
	// the same record as page 0 (duplicate claim).
	buf := make([]hw.Word, hw.PageWords)
	fileIdx, err := pa.CreateEntry(2, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	fileRec, err := pa.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 777
	if err := pa.WriteRecord(fileRec, buf); err != nil {
		t.Fatal(err)
	}
	if err := pa.UpdateEntry(fileIdx, func(e *disk.TOCEntry) error {
		e.Map = []disk.FileMapEntry{
			{State: disk.PageStored, Record: fileRec},
			{State: disk.PageStored, Record: fileRec},
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// An orphan: allocated, claimed by nothing.
	if _, err := pa.AllocRecord(); err != nil {
		t.Fatal(err)
	}

	// A claimed-but-free record: a crash between freeing a zero
	// page's record and marking the page zero.
	zrec, err := pa.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	zIdx, err := pa.CreateEntry(3, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.UpdateEntry(zIdx, func(e *disk.TOCEntry) error {
		e.Map = []disk.FileMapEntry{{State: disk.PageStored, Record: zrec}}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := pa.FreeRecord(zrec); err != nil {
		t.Fatal(err)
	}

	// A duplicate entry: uid 2 again on dskb with fewer stored
	// records — the incomplete half of an interrupted relocation.
	dupIdx, err := pb.CreateEntry(2, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	dupRec, err := pb.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 888
	if err := pb.WriteRecord(dupRec, buf); err != nil {
		t.Fatal(err)
	}
	// The copy's map was never installed: zero stored records.
	_ = dupIdx

	rep, err := salvage.Run(vols, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[salvage.RepairKind]int)
	for _, f := range rep.Findings {
		kinds[f.Kind]++
	}
	if kinds[salvage.DuplicateEntry] != 1 {
		t.Errorf("duplicate-entry repairs = %d, want 1\n%v", kinds[salvage.DuplicateEntry], rep)
	}
	if kinds[salvage.FreeClaimed] != 1 {
		t.Errorf("free-claimed repairs = %d, want 1\n%v", kinds[salvage.FreeClaimed], rep)
	}
	if kinds[salvage.DuplicateClaim] != 1 {
		t.Errorf("duplicate-claim repairs = %d, want 1\n%v", kinds[salvage.DuplicateClaim], rep)
	}
	// dupRec on dskb becomes an orphan once its entry is dropped.
	if kinds[salvage.OrphanFreed] != 2 {
		t.Errorf("orphan-freed repairs = %d, want 2 (crafted orphan + dropped copy's record)\n%v", kinds[salvage.OrphanFreed], rep)
	}
	if kinds[salvage.QuotaRecount] != 1 {
		t.Errorf("quota-recount repairs = %d, want 1\n%v", kinds[salvage.QuotaRecount], rep)
	}

	// The duplicate claim was resolved by copying: both pages of uid
	// 2 stored, distinct records, same contents.
	var fe disk.TOCEntry
	ok := false
	pa.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
		if e.UID == 2 {
			fe, ok = e, true
		}
	})
	if !ok {
		t.Fatal("file entry vanished")
	}
	if len(fe.Map) != 2 || fe.Map[0].State != disk.PageStored || fe.Map[1].State != disk.PageStored {
		t.Fatalf("file map after salvage: %+v", fe.Map)
	}
	if fe.Map[0].Record == fe.Map[1].Record {
		t.Error("duplicate claim survived salvage")
	}
	for pg := 0; pg < 2; pg++ {
		if err := pa.ReadRecord(fe.Map[pg].Record, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 777 {
			t.Errorf("page %d word 0 = %d, want 777", pg, buf[0])
		}
	}

	// The honoured claim reads as zeros — what the zero page held.
	if err := pa.ReadRecord(zrec, buf); err != nil {
		t.Fatal(err)
	}
	for off, w := range buf {
		if w != 0 {
			t.Fatalf("honoured claim word %d = %d, want 0", off, w)
		}
	}

	// Quota recount: dir page + file pages (2) + honoured zero-claim
	// page, all governed by uid 1.
	var de disk.TOCEntry
	pa.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
		if e.UID == 1 {
			de = e
		}
	})
	if de.Quota.Used != 4 {
		t.Errorf("recounted quota used = %d, want 4", de.Quota.Used)
	}

	if pa.Dirty() || pb.Dirty() {
		t.Error("packs still dirty after salvage")
	}
	rerun, err := salvage.Run(vols, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rerun.Clean() {
		t.Errorf("second pass not clean:\n%v", rerun)
	}
}

// TestDemountMountRoundTrip: a segment with resident modified pages
// is deactivated, its pack demounted and remounted, and everything —
// contents, quota, page frames — survives the round trip.
func TestDemountMountRoundTrip(t *testing.T) {
	m := newMachine(t)
	dirUID := m.segs.NewUID()
	cell, err := m.segs.Create("dska", dirUID, true, dirUID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.cells.InitCell(cell, 100); err != nil {
		t.Fatal(err)
	}
	uid := m.segs.NewUID()
	addr, err := m.segs.Create("dska", uid, false, dirUID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.segs.Activate(uid, addr, cell, true); err != nil {
		t.Fatal(err)
	}
	freeBefore := m.frames.FreeFrames()
	for pg := 0; pg < 4; pg++ {
		if _, err := m.segs.Grow(uid, pg, 8, pg); err != nil {
			t.Fatal(err)
		}
		if err := m.segs.WriteWord(uid, pg*hw.PageWords+1, hw.Word(4000+pg)); err != nil {
			t.Fatal(err)
		}
	}
	// Deactivation writes the resident dirty pages back; demount
	// must then find nothing resident and lose nothing.
	if err := m.segs.Deactivate(uid); err != nil {
		t.Fatal(err)
	}
	if err := m.cells.Deactivate(cell); err != nil {
		t.Fatal(err)
	}
	if got := m.frames.FreeFrames(); got != freeBefore {
		t.Errorf("page frames leaked across deactivation: %d free, was %d", got, freeBefore)
	}
	pack, err := m.vols.Demount("dska")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.vols.Pack("dska"); err == nil {
		t.Error("demounted pack still addressable")
	}
	if err := m.vols.Mount(pack); err != nil {
		t.Fatal(err)
	}

	// Remounted: reactivate and read every word back.
	if _, err := m.segs.Activate(uid, addr, cell, true); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < 4; pg++ {
		if _, err := m.segs.EnsureResident(uid, pg); err != nil {
			t.Fatal(err)
		}
		w, err := m.segs.ReadWord(uid, pg*hw.PageWords+1)
		if err != nil {
			t.Fatal(err)
		}
		if w != hw.Word(4000+pg) {
			t.Errorf("page %d word = %d after round trip, want %d", pg, w, 4000+pg)
		}
	}
	if err := m.segs.Deactivate(uid); err != nil {
		t.Fatal(err)
	}
	if got := m.frames.FreeFrames(); got != freeBefore {
		t.Errorf("page frames leaked across the round trip: %d free, was %d", got, freeBefore)
	}
	if err := m.cells.Activate(cell); err != nil {
		t.Fatal(err)
	}
	_, used, err := m.cells.Info(cell)
	if err != nil {
		t.Fatal(err)
	}
	if used != 4 {
		t.Errorf("quota used after round trip = %d, want 4", used)
	}
}
