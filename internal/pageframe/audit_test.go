package pageframe

import (
	"testing"

	"multics/internal/hw"
)

func TestAccessors(t *testing.T) {
	f := newFixture(t, 4)
	if f.m.PageableFrames() != 4 {
		t.Errorf("PageableFrames = %d", f.m.PageableFrames())
	}
	if f.m.Mem() != f.mem {
		t.Error("Mem accessor wrong")
	}
}

func TestAuditCleanThenCorrupt(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(0, false)
	if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack}); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("clean manager audits dirty: %v", bad)
	}
	// Corrupt the descriptor: point it elsewhere.
	if _, err := pt.Update(0, func(d *hw.PTW) { d.Frame = 0 }); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a descriptor pointing at the wrong frame")
	}
	if _, err := pt.Update(0, func(d *hw.PTW) { d.Present = false }); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a not-present descriptor for an in-use frame")
	}
}

// The per-table resident index must list every in-use frame under its
// own table: Audit catches a frame missing from its table's list, and a
// list naming a frame of another table.
func TestAuditDetectsResidentIndexCorruption(t *testing.T) {
	f := newFixture(t, 4)
	ptA := hw.NewPageTable(0, false)
	ptB := hw.NewPageTable(0, false)
	for _, pt := range []*hw.PageTable{ptA, ptA, ptB} {
		if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: pt.Len(), Pack: f.pack}); err != nil {
			t.Fatal(err)
		}
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("clean manager audits dirty: %v", bad)
	}
	f.m.mu.Lock()
	headA, headB := f.m.tables[ptA], f.m.tables[ptB]
	f.m.tables[ptA] = f.m.frames[headA].next // unlist A's newest page
	f.m.mu.Unlock()
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed an in-use frame absent from its table's list")
	}
	f.m.mu.Lock()
	f.m.tables[ptA] = headA
	f.m.tables[ptB] = headA // B's list now names A's frames
	f.m.mu.Unlock()
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a table's list naming another table's frames")
	}
	f.m.mu.Lock()
	f.m.tables[ptB] = headB
	f.m.mu.Unlock()
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("restored index audits dirty: %v", bad)
	}
}

func TestAuditDetectsFreeListCorruption(t *testing.T) {
	f := newFixture(t, 3)
	pt := hw.NewPageTable(0, false)
	if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack}); err != nil {
		t.Fatal(err)
	}
	// Duplicate a frame onto the free list (pulling cached frames
	// back into the global pool first, so it is non-empty).
	f.m.mu.Lock()
	f.m.drainCachesLocked()
	f.m.free = append(f.m.free, f.m.free[0])
	f.m.mu.Unlock()
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a duplicated free frame")
	}
	// Free an in-use frame.
	f2 := newFixture(t, 3)
	pt2 := hw.NewPageTable(0, false)
	if _, _, err := f2.m.AddPage(PageReq{UID: 1, PT: pt2, Page: 0, Pack: f2.pack}); err != nil {
		t.Fatal(err)
	}
	d, _ := pt2.Get(0)
	f2.m.mu.Lock()
	f2.m.free = append(f2.m.free, d.Frame)
	f2.m.mu.Unlock()
	if bad := f2.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a frame both free and in use")
	}
	// Lose a frame entirely.
	f3 := newFixture(t, 3)
	f3.m.mu.Lock()
	f3.m.free = f3.m.free[:len(f3.m.free)-1]
	f3.m.mu.Unlock()
	if bad := f3.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a lost frame")
	}
}

func TestLockedFramesAreNotEvicted(t *testing.T) {
	// A descriptor mid-service (lock bit set) must never be chosen
	// as a victim.
	f := newFixture(t, 1)
	pt := hw.NewPageTable(0, false)
	if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack}); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Update(0, func(d *hw.PTW) { d.Lock = true }); err != nil {
		t.Fatal(err)
	}
	pt2 := hw.NewPageTable(0, false)
	if _, _, err := f.m.AddPage(PageReq{UID: 2, PT: pt2, Page: 0, Pack: f.pack}); err == nil {
		t.Error("eviction of a locked frame succeeded")
	}
	// Unlock: now it can be evicted.
	if err := pt.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.m.AddPage(PageReq{UID: 2, PT: pt2, Page: 0, Pack: f.pack}); err != nil {
		t.Errorf("eviction after unlock failed: %v", err)
	}
}
