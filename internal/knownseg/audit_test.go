package knownseg

import (
	"testing"

	"multics/internal/disk"
	"multics/internal/quota"
)

func TestAuditCleanAndCorrupt(t *testing.T) {
	f := newFixture(t, 8, 64)
	k, err := f.m.NewKST(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	uid, addr := f.newFile(t)
	segno, err := f.m.MakeKnown(k, entryFor(uid, addr, f.cell))
	if err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("clean KST audits dirty: %v", bad)
	}
	// Corrupt the bijection: the slot's recorded segno lies.
	k.mu.Lock()
	k.entries[segno-k.base].Segno = segno + 1
	k.mu.Unlock()
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a segno mismatch")
	}
	k.mu.Lock()
	k.entries[segno-k.base].Segno = segno
	// Corrupt the uid index.
	k.byUID[uid] = 3
	k.mu.Unlock()
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a dangling uid index")
	}
}

func TestUpdateCellRenames(t *testing.T) {
	f := newFixture(t, 8, 64)
	k, err := f.m.NewKST(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	uid, addr := f.newFile(t)
	segno, err := f.m.MakeKnown(k, entryFor(uid, addr, f.cell))
	if err != nil {
		t.Fatal(err)
	}
	newCell := quota.CellName{Pack: "dskb", TOC: disk.TOCIndex(42)}
	f.m.UpdateCell(f.cell, newCell)
	e, err := k.Entry(segno)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cell != newCell {
		t.Errorf("cell = %v, want %v", e.Cell, newCell)
	}
	// Entries bound to other cells are untouched.
	f.m.UpdateCell(quota.CellName{Pack: "zzz"}, f.cell)
	e, _ = k.Entry(segno)
	if e.Cell != newCell {
		t.Error("unrelated UpdateCell rewrote a binding")
	}
}
