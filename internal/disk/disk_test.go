package disk

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"multics/internal/hw"
)

func TestAllocUntilFull(t *testing.T) {
	p := NewPack("dska", 3, nil)
	seen := map[RecordAddr]bool{}
	for i := 0; i < 3; i++ {
		r, err := p.AllocRecord()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[r] {
			t.Fatalf("record %d allocated twice", r)
		}
		seen[r] = true
	}
	if _, err := p.AllocRecord(); !errors.Is(err, ErrPackFull) {
		t.Errorf("alloc on full pack: %v, want ErrPackFull", err)
	}
	if p.FreeRecords() != 0 || p.UsedRecords() != 3 {
		t.Errorf("free=%d used=%d, want 0/3", p.FreeRecords(), p.UsedRecords())
	}
}

func TestFreeRecordRecycles(t *testing.T) {
	p := NewPack("dska", 1, nil)
	r, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]hw.Word, hw.PageWords)
	buf[0] = 42
	if err := p.WriteRecord(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.FreeRecord(r); err != nil {
		t.Fatal(err)
	}
	r2, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r {
		t.Fatalf("recycled record = %d, want %d", r2, r)
	}
	// Contents of a freed-and-reallocated record read as zeros.
	if err := p.ReadRecord(r2, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Errorf("freed record retained data: %d", buf[0])
	}
	if err := p.FreeRecord(RecordAddr(99)); err == nil {
		t.Error("free of out-of-range record succeeded")
	}
}

func TestRecordIO(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 4, meter)
	r, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	src := make([]hw.Word, hw.PageWords)
	for i := range src {
		src[i] = hw.Word(i)
	}
	if err := p.WriteRecord(r, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]hw.Word, hw.PageWords)
	if err := p.ReadRecord(r, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("word %d = %d, want %d", i, dst[i], src[i])
		}
	}
	if meter.Cycles() < 2*(hw.CycDiskSeek+hw.CycDiskRecord) {
		t.Errorf("two transfers accrued only %d cycles", meter.Cycles())
	}
	if err := p.ReadRecord(r, dst[:5]); err == nil {
		t.Error("short read buffer accepted")
	}
	if err := p.WriteRecord(r, src[:5]); err == nil {
		t.Error("short write buffer accepted")
	}
	if err := p.WriteRecord(RecordAddr(9), src); err == nil {
		t.Error("write to out-of-range record succeeded")
	}
}

func TestTOCEntryLifecycle(t *testing.T) {
	p := NewPack("dska", 8, nil)
	idx, err := p.CreateEntry(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Entry(idx)
	if err != nil {
		t.Fatal(err)
	}
	if e.UID != 100 || e.Dir {
		t.Errorf("entry = %+v", e)
	}
	// Grow the file map: one stored page, one zero page, one
	// unallocated page.
	r, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	err = p.UpdateEntry(idx, func(e *TOCEntry) error {
		e.Map = []FileMapEntry{
			{State: PageStored, Record: r},
			{State: PageZero},
			{State: PageUnallocated},
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err = p.Entry(idx)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Records(); got != 1 {
		t.Errorf("Records() = %d, want 1 (zero pages are free)", got)
	}
	// Entry returns a copy: mutating it must not affect the pack.
	e.Map[0].State = PageZero
	e2, _ := p.Entry(idx)
	if e2.Map[0].State != PageStored {
		t.Error("Entry returned aliased file map")
	}
	// DeleteEntry frees the mapped record.
	before := p.FreeRecords()
	if err := p.DeleteEntry(idx); err != nil {
		t.Fatal(err)
	}
	if p.FreeRecords() != before+1 {
		t.Errorf("free records after delete = %d, want %d", p.FreeRecords(), before+1)
	}
	if _, err := p.Entry(idx); err == nil {
		t.Error("deleted entry still readable")
	}
	if n := liveEntries(p); n != 0 {
		t.Errorf("%d live entries after delete", n)
	}
}

func TestTOCSlotReuse(t *testing.T) {
	p := NewPack("dska", 2, nil)
	a, _ := p.CreateEntry(1, false, 0)
	b, _ := p.CreateEntry(2, true, 2)
	if err := p.DeleteEntry(a); err != nil {
		t.Fatal(err)
	}
	c, err := p.CreateEntry(3, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("new entry got slot %d, want recycled slot %d", c, a)
	}
	eb, _ := p.Entry(b)
	if eb.UID != 2 || !eb.Dir {
		t.Errorf("entry b corrupted: %+v", eb)
	}
}

func TestQuotaCellStorage(t *testing.T) {
	p := NewPack("dska", 2, nil)
	idx, _ := p.CreateEntry(7, true, 7)
	err := p.UpdateEntry(idx, func(e *TOCEntry) error {
		e.Quota = QuotaCell{Valid: true, Limit: 50, Used: 3}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := p.Entry(idx)
	if !e.Quota.Valid || e.Quota.Limit != 50 || e.Quota.Used != 3 {
		t.Errorf("quota cell = %+v", e.Quota)
	}
}

func TestVolumesRegistry(t *testing.T) {
	v := NewVolumes(nil, nil)
	a, err := v.AddPack("dska", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddPack("dska", 10); err == nil {
		t.Error("duplicate mount succeeded")
	}
	if _, err := v.AddPack("dskb", 20); err != nil {
		t.Fatal(err)
	}
	got, err := v.Pack("dska")
	if err != nil || got != a {
		t.Errorf("Pack(dska) = %v, %v", got, err)
	}
	if _, err := v.Pack("nope"); err == nil {
		t.Error("lookup of unmounted pack succeeded")
	}
	ids := v.Packs()
	if len(ids) != 2 || ids[0] != "dska" || ids[1] != "dskb" {
		t.Errorf("Packs = %v", ids)
	}
}

// TestAddPackRejectsNonPositiveCapacity: a pack of no records is a
// configuration error, returned to the caller, not a panic under the
// registry's lock; the registry stays usable.
func TestAddPackRejectsNonPositiveCapacity(t *testing.T) {
	v := NewVolumes(nil, nil)
	for _, capacity := range []int{0, -1} {
		if p, err := v.AddPack("dska", capacity); err == nil {
			t.Errorf("AddPack(dska, %d) = %v, want an error", capacity, p)
		}
	}
	if _, err := v.AddPack("dska", 1); err != nil {
		t.Fatal(err)
	}
	if ids := v.Packs(); len(ids) != 1 || ids[0] != "dska" {
		t.Errorf("Packs = %v, want [dska]", ids)
	}
}

func TestEmptiestChoosesMostFree(t *testing.T) {
	v := NewVolumes(nil, nil)
	a, _ := v.AddPack("dska", 5)
	if _, err := v.AddPack("dskb", 10); err != nil {
		t.Fatal(err)
	}
	c, _ := v.AddPack("dskc", 10)
	// Fill dskc partially so dskb is emptiest.
	for i := 0; i < 3; i++ {
		if _, err := c.AllocRecord(); err != nil {
			t.Fatal(err)
		}
	}
	best, err := v.Emptiest("dska")
	if err != nil {
		t.Fatal(err)
	}
	if best.ID() != "dskb" {
		t.Errorf("Emptiest = %s, want dskb", best.ID())
	}
	// Excluding everything with space fails.
	v2 := NewVolumes(nil, nil)
	only, _ := v2.AddPack("solo", 1)
	if _, err := only.AllocRecord(); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Emptiest(""); err == nil {
		t.Error("Emptiest with no free space succeeded")
	}
	if _, err := v2.Emptiest("solo"); err == nil {
		t.Error("Emptiest excluding the only pack succeeded")
	}
	_ = a
}

func TestDemountStopsTransfers(t *testing.T) {
	v := NewVolumes(nil, nil)
	p, _ := v.AddPack("dska", 4)
	r, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Demount("dska"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Demount("dska"); err == nil {
		t.Error("double demount succeeded")
	}
	buf := make([]hw.Word, hw.PageWords)
	if err := p.ReadRecord(r, buf); err == nil {
		t.Error("read from demounted pack succeeded")
	}
	if _, err := p.AllocRecord(); err == nil {
		t.Error("alloc on demounted pack succeeded")
	}
	if _, err := p.CreateEntry(1, false, 0); err == nil {
		t.Error("CreateEntry on demounted pack succeeded")
	}
}

func TestSegAddrString(t *testing.T) {
	a := SegAddr{Pack: "dskb", TOC: 17}
	if a.String() != "dskb:17" {
		t.Errorf("String = %q", a.String())
	}
	for _, s := range []PageState{PageUnallocated, PageZero, PageStored, PageState(9)} {
		if s.String() == "" {
			t.Errorf("PageState(%d) has empty name", int(s))
		}
	}
}

// Property: alloc/free keeps free+used == capacity and never hands out
// an address out of range.
func TestAllocFreeInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		p := NewPack("q", 16, nil)
		var held []RecordAddr
		for _, alloc := range ops {
			if alloc {
				r, err := p.AllocRecord()
				if err != nil {
					if !errors.Is(err, ErrPackFull) {
						return false
					}
					continue
				}
				if r < 0 || int(r) >= 16 {
					return false
				}
				held = append(held, r)
			} else if len(held) > 0 {
				r := held[len(held)-1]
				held = held[:len(held)-1]
				if err := p.FreeRecord(r); err != nil {
					return false
				}
			}
			if p.FreeRecords()+p.UsedRecords() != 16 {
				return false
			}
			if p.UsedRecords() != len(held) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Records() counts exactly the PageStored entries.
func TestRecordsCountProperty(t *testing.T) {
	f := func(states []uint8) bool {
		e := TOCEntry{}
		want := 0
		for _, s := range states {
			st := PageState(s % 3)
			if st == PageStored {
				want++
			}
			e.Map = append(e.Map, FileMapEntry{State: st})
		}
		return e.Records() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEachEntryAndCapacity(t *testing.T) {
	p := NewPack("dska", 7, nil)
	if p.Capacity() != 7 {
		t.Errorf("Capacity = %d", p.Capacity())
	}
	a, _ := p.CreateEntry(1, false, 0)
	b, _ := p.CreateEntry(2, true, 2)
	if err := p.DeleteEntry(a); err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	p.EachEntry(func(idx TOCIndex, e TOCEntry) {
		seen = append(seen, e.UID)
		if idx != b {
			t.Errorf("unexpected index %d", idx)
		}
	})
	if len(seen) != 1 || seen[0] != 2 {
		t.Errorf("EachEntry saw %v", seen)
	}
}

func TestDemountRemountPreservesData(t *testing.T) {
	v := NewVolumes(nil, nil)
	p, err := v.AddPack("dska", 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]hw.Word, hw.PageWords)
	buf[0] = 314
	if err := p.WriteRecord(r, buf); err != nil {
		t.Fatal(err)
	}
	demounted, err := v.Demount("dska")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Mount(demounted); err != nil {
		t.Fatal(err)
	}
	if err := v.Mount(demounted); err == nil {
		t.Error("double mount succeeded")
	}
	back, err := v.Pack("dska")
	if err != nil {
		t.Fatal(err)
	}
	clear(buf)
	if err := back.ReadRecord(r, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 314 {
		t.Errorf("remounted data = %d", buf[0])
	}
}

func TestEmptiestTieBreakDeterministic(t *testing.T) {
	// Equal free space on every pack: the winner must be the same on
	// every call regardless of map iteration order — the first pack
	// identifier in sorted order.
	vols := NewVolumes(nil, nil)
	for _, id := range []string{"dskc", "dska", "dskb"} {
		if _, err := vols.AddPack(id, 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		p, err := vols.Emptiest("")
		if err != nil {
			t.Fatal(err)
		}
		if p.ID() != "dska" {
			t.Fatalf("call %d: Emptiest = %s, want dska", i, p.ID())
		}
	}
	// Excluding the winner moves deterministically to the next.
	for i := 0; i < 50; i++ {
		p, err := vols.Emptiest("dska")
		if err != nil {
			t.Fatal(err)
		}
		if p.ID() != "dskb" {
			t.Fatalf("call %d: Emptiest excluding dska = %s, want dskb", i, p.ID())
		}
	}
}

// liveEntries counts the pack's live table-of-contents entries.
func liveEntries(p *Pack) int {
	n := 0
	p.EachEntry(func(TOCIndex, TOCEntry) { n++ })
	return n
}

// TestCreateEntryTakesLowestDeadSlot pins the table of contents' first
// fit: under a seeded mix of creations, deletions and drops over more
// than two bitmap words of entries, every CreateEntry returns the index
// a linear scan for the first non-live entry would, and appends when
// none is dead.
func TestCreateEntryTakesLowestDeadSlot(t *testing.T) {
	p := NewPack("dska", 64, nil)
	rng := rand.New(rand.NewSource(1977))
	var live []bool
	firstFit := func() int {
		for i, l := range live {
			if !l {
				return i
			}
		}
		return len(live)
	}
	var liveIdx []TOCIndex
	for step := 0; step < 5000; step++ {
		if len(liveIdx) == 0 || rng.Intn(5) < 3 {
			want := firstFit()
			got, err := p.CreateEntry(uint64(step+1), false, 0)
			if err != nil {
				t.Fatal(err)
			}
			if int(got) != want {
				t.Fatalf("step %d: CreateEntry = %d, first non-live entry is %d", step, got, want)
			}
			if want == len(live) {
				live = append(live, false)
			}
			live[want] = true
			liveIdx = append(liveIdx, got)
			continue
		}
		i := rng.Intn(len(liveIdx))
		idx := liveIdx[i]
		liveIdx = append(liveIdx[:i], liveIdx[i+1:]...)
		var err error
		if rng.Intn(2) == 0 {
			err = p.DeleteEntry(idx)
		} else {
			err = p.DropEntry(idx)
		}
		if err != nil {
			t.Fatal(err)
		}
		live[idx] = false
	}
	if len(live) <= 128 {
		t.Errorf("table grew to %d entries, want more than two bitmap words", len(live))
	}
}
