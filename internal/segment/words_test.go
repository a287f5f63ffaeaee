package segment

import (
	"testing"

	"multics/internal/disk"
	"multics/internal/hw"
)

func TestWriteReadWord(t *testing.T) {
	f := newFixture(t, 8, 64)
	_, cell := f.quotaDir(t, 20)
	uid, _ := f.newSeg(t, cell)
	// A write to a non-resident page is rejected; EnsureResident
	// opens the charged path first.
	if err := f.m.WriteWord(uid, 5, 7); err == nil {
		t.Error("write to non-resident page succeeded")
	}
	if _, err := f.m.ReadWord(uid, 5); err == nil {
		t.Error("read of non-resident page succeeded")
	}
	reloc, err := f.m.EnsureResident(uid, 0)
	if err != nil || reloc != nil {
		t.Fatalf("EnsureResident = %v, %v", reloc, err)
	}
	if err := f.m.WriteWord(uid, 5, 7); err != nil {
		t.Fatal(err)
	}
	w, err := f.m.ReadWord(uid, 5)
	if err != nil || w != 7 {
		t.Fatalf("ReadWord = %d, %v", w, err)
	}
	// A second EnsureResident of a present page is a no-op.
	if _, err := f.m.EnsureResident(uid, 0); err != nil {
		t.Fatal(err)
	}
	// EnsureResident on a stored-but-evicted page takes the
	// missing-page path.
	if err := f.m.Deactivate(uid); err != nil {
		t.Fatal(err)
	}
	a, err := f.m.Activate(uid, mustAddr(t, f, uid), cell, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	if _, err := f.m.EnsureResident(uid, 0); err != nil {
		t.Fatal(err)
	}
	w, err = f.m.ReadWord(uid, 5)
	if err != nil || w != 7 {
		t.Fatalf("after round trip ReadWord = %d, %v", w, err)
	}
	// Inactive segment: all the helpers fail cleanly.
	if err := f.m.Deactivate(uid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.EnsureResident(uid, 0); err == nil {
		t.Error("EnsureResident of inactive segment succeeded")
	}
	if err := f.m.WriteWord(uid, 0, 1); err == nil {
		t.Error("WriteWord of inactive segment succeeded")
	}
	if _, err := f.m.ReadWord(uid, 0); err == nil {
		t.Error("ReadWord of inactive segment succeeded")
	}
}

// mustAddr digs a segment's current disk address out of its pack.
func mustAddr(t *testing.T, f *fixture, uid uint64) disk.SegAddr {
	t.Helper()
	for _, id := range f.vols.Packs() {
		pack, err := f.vols.Pack(id)
		if err != nil {
			t.Fatal(err)
		}
		var found *disk.SegAddr
		pack.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
			if e.UID == uid {
				a := disk.SegAddr{Pack: id, TOC: idx}
				found = &a
			}
		})
		if found != nil {
			return *found
		}
	}
	t.Fatalf("segment %d has no table-of-contents entry", uid)
	return disk.SegAddr{}
}

func TestDiskEntry(t *testing.T) {
	f := newFixture(t, 4, 64)
	_, cell := f.quotaDir(t, 10)
	uid, a := f.newSeg(t, cell)
	e, err := f.m.DiskEntry(a.Addr())
	if err != nil || e.UID != uid {
		t.Fatalf("DiskEntry = %+v, %v", e, err)
	}
	if _, err := f.m.DiskEntry(disk.SegAddr{Pack: "none", TOC: 0}); err == nil {
		t.Error("DiskEntry on unmounted pack succeeded")
	}
}

func TestEachActiveAndAudit(t *testing.T) {
	f := newFixture(t, 8, 64)
	_, cell := f.quotaDir(t, 20)
	uid1, _ := f.newSeg(t, cell)
	uid2, a2 := f.newSeg(t, cell)
	if _, err := f.m.Grow(uid2, 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	f.m.EachActive(func(a *ASTE) { seen[a.UID()] = true })
	if !seen[uid1] || !seen[uid2] {
		t.Errorf("EachActive saw %v", seen)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("clean manager audits dirty: %v", bad)
	}
	// Corrupt: mark a page present whose file map says unallocated.
	if _, err := a2.PageTable().Update(3, func(d *hw.PTW) { d.Present = true; d.QuotaTrap = false }); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a phantom resident page")
	}
	if _, err := a2.PageTable().Update(3, func(d *hw.PTW) { d.Present = false; d.QuotaTrap = true }); err != nil {
		t.Fatal(err)
	}
	// Corrupt: a stored page that still traps for quota.
	if _, err := a2.PageTable().Update(0, func(d *hw.PTW) { d.Present = false; d.QuotaTrap = true }); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a stored page behind a quota trap")
	}
}

func TestTruncate(t *testing.T) {
	f := newFixture(t, 8, 64)
	_, cell := f.quotaDir(t, 20)
	uid, a := f.newSeg(t, cell)
	pack, _ := f.vols.Pack("dska")
	for i := 0; i < 4; i++ {
		if _, err := f.m.Grow(uid, i, 8, i); err != nil {
			t.Fatal(err)
		}
		if err := f.m.WriteWord(uid, i*hw.PageWords, hw.Word(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	_, used, _ := f.cells.Info(cell)
	recordsBefore := pack.UsedRecords()
	if used != 4 {
		t.Fatalf("used = %d before truncate", used)
	}
	if err := f.m.Truncate(uid, 2); err != nil {
		t.Fatal(err)
	}
	_, used, _ = f.cells.Info(cell)
	if used != 2 {
		t.Errorf("used = %d after truncate, want 2", used)
	}
	if pack.UsedRecords() != recordsBefore-2 {
		t.Errorf("records = %d, want %d", pack.UsedRecords(), recordsBefore-2)
	}
	if a.Pages() != 2 {
		t.Errorf("Pages = %d", a.Pages())
	}
	// Surviving pages intact; truncated region grows again through
	// the charged path.
	w, err := f.m.ReadWord(uid, 0)
	if err != nil || w != 1 {
		t.Fatalf("page 0 word = %d, %v", w, err)
	}
	for page := 1; page < MaxPages; page++ {
		d, _ := a.PageTable().Get(page)
		if page < 2 && (!d.Present || d.QuotaTrap) {
			t.Errorf("surviving page %d descriptor = %+v", page, d)
		}
		if page >= 2 && (d.Present || !d.QuotaTrap) {
			t.Errorf("truncated page %d descriptor = %+v", page, d)
		}
	}
	if bad := f.frames.Audit(); len(bad) != 0 {
		t.Errorf("page frame audit after truncate: %v", bad)
	}
	if _, err := f.m.Grow(uid, 3, 8, 3); err != nil {
		t.Fatal(err)
	}
	_, used, _ = f.cells.Info(cell)
	if used != 3 {
		t.Errorf("used = %d after regrowth", used)
	}
	// Degenerate arguments.
	if err := f.m.Truncate(uid, -1); err == nil {
		t.Error("negative truncate succeeded")
	}
	if err := f.m.Truncate(999, 0); err == nil {
		t.Error("truncate of inactive segment succeeded")
	}
	// Truncate to zero empties the segment.
	if err := f.m.Truncate(uid, 0); err != nil {
		t.Fatal(err)
	}
	_, used, _ = f.cells.Info(cell)
	if used != 0 {
		t.Errorf("used = %d after truncate to zero", used)
	}
}

// Property: any interleaving of growths and truncations keeps the
// quota cell's count equal to the segment's stored records.
func TestGrowTruncateAccountingProperty(t *testing.T) {
	f := newFixture(t, 16, 512)
	_, cell := f.quotaDir(t, 400)
	uid, a := f.newSeg(t, cell)
	pack, _ := f.vols.Pack("dska")
	rng := func() func() int {
		state := uint64(1977)
		return func() int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state >> 33)
		}
	}()
	for op := 0; op < 120; op++ {
		switch rng() % 3 {
		case 0, 1: // grow a page and dirty it so it is not reclaimed
			page := rng() % 40
			if _, err := f.m.Grow(uid, page, 8, page); err != nil {
				// Re-growing a stored page is rejected; fine.
				continue
			}
			if err := f.m.WriteWord(uid, page*hw.PageWords, hw.Word(op+1)); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := f.m.Truncate(uid, rng()%40); err != nil {
				t.Fatal(err)
			}
		}
		_, used, err := f.cells.Info(cell)
		if err != nil {
			t.Fatal(err)
		}
		e, err := pack.Entry(a.Addr().TOC)
		if err != nil {
			t.Fatal(err)
		}
		if used != e.Records() {
			t.Fatalf("op %d: cell charges %d, segment stores %d records", op, used, e.Records())
		}
	}
}
