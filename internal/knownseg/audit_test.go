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

// A dropped table keeps its entries until ReuseKST empties it and
// lists it again; a listed table is refused. Audit finds a dropped
// table left on the list of live ones.
func TestReuseKSTAndAuditFindsDroppedLive(t *testing.T) {
	f := newFixture(t, 8, 64)
	k, err := f.m.NewKST(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	uid, addr := f.newFile(t)
	if _, err := f.m.MakeKnown(k, entryFor(uid, addr, f.cell)); err != nil {
		t.Fatal(err)
	}
	if err := f.m.ReuseKST(k, 8, 4); err == nil {
		t.Error("ReuseKST took a table still in use")
	}
	f.m.DropKST(k)
	if f.m.Listed(k) {
		t.Fatal("dropped table still listed")
	}
	if _, err := k.Entry(8); err != nil {
		t.Errorf("dropped table forgot its segment before reuse: %v", err)
	}
	if err := f.m.ReuseKST(k, 8, 2); err != nil {
		t.Fatal(err)
	}
	if !f.m.Listed(k) {
		t.Fatal("reused table not listed")
	}
	if _, err := k.Entry(8); err == nil {
		t.Error("reused table still knows its last process's segment")
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("clean manager audits dirty: %v", bad)
	}
	// Corrupt: a dropped table stays on the live list.
	f.m.DropKST(k)
	f.m.mu.Lock()
	f.m.ksts = append(f.m.ksts, k)
	f.m.mu.Unlock()
	if bad := f.m.Audit(); len(bad) != 1 {
		t.Errorf("audit of a dropped table on the live list = %v, want one finding", bad)
	}
}
