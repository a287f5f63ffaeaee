package quota

import (
	"errors"
	"testing"
	"testing/quick"

	"multics/internal/coreseg"
	"multics/internal/disk"
	"multics/internal/hw"
)

type fixture struct {
	m    *Manager
	vols *disk.Volumes
	pack *disk.Pack
	uids uint64 // uids handed out by newCell
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	mem := hw.NewMemory(4)
	cm, err := coreseg.NewManager(mem, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := cm.Allocate("quota-table", hw.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	vols := disk.NewVolumes(nil, nil)
	pack, err := vols.AddPack("dska", 100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(vols, table, &hw.CostMeter{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, vols: vols, pack: pack}
}

// newCell creates a quota directory entry with the given limit and
// returns its cell name.
func (f *fixture) newCell(t *testing.T, limit int) CellName {
	t.Helper()
	f.uids++
	uid := f.uids
	idx, err := f.pack.CreateEntry(uid, true, uid)
	if err != nil {
		t.Fatal(err)
	}
	name := CellName{Pack: "dska", TOC: idx}
	if err := f.m.InitCell(name, limit); err != nil {
		t.Fatal(err)
	}
	return name
}

func TestInitCellValidation(t *testing.T) {
	f := newFixture(t)
	name := f.newCell(t, 10)
	if err := f.m.InitCell(name, 5); err == nil {
		t.Error("double InitCell succeeded")
	}
	// Not a directory.
	idx, err := f.pack.CreateEntry(99, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.m.InitCell(CellName{Pack: "dska", TOC: idx}, 5); err == nil {
		t.Error("InitCell on a non-directory succeeded")
	}
	if err := f.m.InitCell(CellName{Pack: "dska", TOC: 999}, 5); err == nil {
		t.Error("InitCell on missing entry succeeded")
	}
	if err := f.m.InitCell(CellName{Pack: "nope", TOC: 0}, 5); err == nil {
		t.Error("InitCell on missing pack succeeded")
	}
	if err := f.m.InitCell(name, -1); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestChargeReleaseLifecycle(t *testing.T) {
	f := newFixture(t)
	name := f.newCell(t, 5)
	// Operations before activation fail.
	if err := f.m.Charge(name, 1); !errors.Is(err, ErrNotActive) {
		t.Errorf("Charge before activate: %v", err)
	}
	if err := f.m.Activate(name); err != nil {
		t.Fatal(err)
	}
	if !f.m.Active(name) {
		t.Error("cell not active after Activate")
	}
	if err := f.m.Charge(name, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Charge(name, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Charge(name, 1); !errors.Is(err, ErrExceeded) {
		t.Errorf("charge beyond limit: %v, want ErrExceeded", err)
	}
	limit, used, err := f.m.Info(name)
	if err != nil || limit != 5 || used != 5 {
		t.Errorf("Info = %d/%d, %v", used, limit, err)
	}
	if err := f.m.Release(name, 4); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Release(name, 2); err == nil {
		t.Error("release below zero succeeded")
	}
	_, used, _ = f.m.Info(name)
	if used != 1 {
		t.Errorf("used = %d after release", used)
	}
}

func TestDeactivateWritesBack(t *testing.T) {
	f := newFixture(t)
	name := f.newCell(t, 8)
	if err := f.m.Activate(name); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Charge(name, 6); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Deactivate(name); err != nil {
		t.Fatal(err)
	}
	if f.m.Active(name) {
		t.Error("cell still active")
	}
	e, err := f.pack.Entry(name.TOC)
	if err != nil {
		t.Fatal(err)
	}
	if e.Quota.Used != 6 || e.Quota.Limit != 8 {
		t.Errorf("TOC quota cell = %+v after deactivate", e.Quota)
	}
	// Reactivation restores the count.
	if err := f.m.Activate(name); err != nil {
		t.Fatal(err)
	}
	_, used, _ := f.m.Info(name)
	if used != 6 {
		t.Errorf("used after reactivate = %d", used)
	}
	if err := f.m.Deactivate(CellName{Pack: "dska", TOC: 999}); !errors.Is(err, ErrNotActive) {
		t.Errorf("deactivate of inactive cell: %v", err)
	}
}

func TestDoubleActivate(t *testing.T) {
	f := newFixture(t)
	name := f.newCell(t, 2)
	if err := f.m.Activate(name); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Activate(name); err == nil {
		t.Error("double activate succeeded")
	}
}

func TestSetLimit(t *testing.T) {
	f := newFixture(t)
	name := f.newCell(t, 5)
	if err := f.m.Activate(name); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Charge(name, 4); err != nil {
		t.Fatal(err)
	}
	// Lowering the limit below the count is allowed but freezes
	// growth.
	if err := f.m.SetLimit(name, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Charge(name, 1); !errors.Is(err, ErrExceeded) {
		t.Errorf("charge after limit cut: %v", err)
	}
	if err := f.m.Release(name, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Charge(name, 1); err != nil {
		t.Errorf("charge within new limit: %v", err)
	}
	if err := f.m.SetLimit(name, -3); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestCacheTableCapacity(t *testing.T) {
	// A one-frame table holds PageWords/CellWords cells; exceeding
	// that must fail, because the table lives in a fixed core
	// segment.
	f := newFixture(t)
	const cap = hw.PageWords / CellWords
	var names []CellName
	for i := 0; i < cap; i++ {
		n := f.newCell(t, 1)
		if err := f.m.Activate(n); err != nil {
			t.Fatalf("activate %d: %v", i, err)
		}
		names = append(names, n)
	}
	extra := f.newCell(t, 1)
	if err := f.m.Activate(extra); err == nil {
		t.Error("activation beyond table capacity succeeded")
	}
	// Deactivating one frees a slot.
	if err := f.m.Deactivate(names[3]); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Activate(extra); err != nil {
		t.Errorf("activation after slot freed: %v", err)
	}
}

func TestCountsVisibleInCoreSegmentTable(t *testing.T) {
	mem := hw.NewMemory(4)
	cm, err := coreseg.NewManager(mem, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := cm.Allocate("quota-table", hw.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	vols := disk.NewVolumes(nil, nil)
	pack, err := vols.AddPack("dska", 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(vols, table, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := pack.CreateEntry(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	name := CellName{Pack: "dska", TOC: idx}
	if err := m.InitCell(name, 9); err != nil {
		t.Fatal(err)
	}
	if err := m.Activate(name); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(name, 4); err != nil {
		t.Fatal(err)
	}
	// First activation takes slot 0: word 0 = used, word 1 = limit.
	used, err := table.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	limit, err := table.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if used != 4 || limit != 9 {
		t.Errorf("core-segment table shows %d/%d, want 4/9", used, limit)
	}
}

func TestNegativeArguments(t *testing.T) {
	f := newFixture(t)
	name := f.newCell(t, 5)
	if err := f.m.Activate(name); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Charge(name, -1); err == nil {
		t.Error("negative charge accepted")
	}
	if err := f.m.Release(name, -1); err == nil {
		t.Error("negative release accepted")
	}
}

// Property: any sequence of charges and releases keeps 0 <= used <=
// limit, and used equals the sum of successful charges minus
// successful releases.
func TestChargeReleaseInvariant(t *testing.T) {
	f := newFixture(t)
	name := f.newCell(t, 20)
	if err := f.m.Activate(name); err != nil {
		t.Fatal(err)
	}
	model := 0
	prop := func(ops []int8) bool {
		for _, op := range ops {
			n := int(op % 7)
			if n < 0 {
				n = -n
			}
			if op >= 0 {
				if err := f.m.Charge(name, n); err == nil {
					model += n
				} else if !errors.Is(err, ErrExceeded) {
					return false
				}
			} else {
				if err := f.m.Release(name, n); err == nil {
					model -= n
				}
			}
			_, used, err := f.m.Info(name)
			if err != nil {
				return false
			}
			if used != model || used < 0 || used > 20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
