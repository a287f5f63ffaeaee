package pageframe

import (
	"testing"

	"multics/internal/disk"
	"multics/internal/hw"
)

// One allocation under a full memory gathers a whole batch of victims,
// writes the dirty ones back as a single grouped submission (one seek),
// and puts the surplus frames on the free list so the next faults take
// no eviction at all.
func TestBatchEvictionGroupsWriteBack(t *testing.T) {
	const frames = 4
	f := newFixture(t, frames)
	pt := hw.NewPageTable(frames + 1)
	recs := make([]disk.RecordAddr, frames)
	for i := 0; i < frames; i++ {
		recs[i] = f.storedPage(t, hw.Word(10+i))
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: i, Pack: f.pack, Record: recs[i], HasRecord: true}, nil); err != nil {
			t.Fatal(err)
		}
		// Dirty every page with a distinguishable word.
		d, err := pt.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.mem.Write(f.mem.FrameBase(d.Frame)+1, hw.Word(100+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := pt.Update(i, func(w *hw.PTW) { w.Modified = true; w.Used = false }); err != nil {
			t.Fatal(err)
		}
	}
	last := f.storedPage(t, 99)
	before := f.meter.Cycles()
	ev, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: frames, Pack: f.pack, Record: last, HasRecord: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != frames {
		t.Fatalf("evicted %d pages, want the whole batch of %d: %v", len(ev), frames, ev)
	}
	// One fault body, one grouped write-back — the victims sort into
	// ascending elevator order, so from the head parked at the last
	// allocated record the batch pays one short seek and then streams
	// back to back — and one demand read of the record adjacent to the
	// batch's end (no positioning at all). Each of the two device
	// submissions pays the queue bookkeeping charge.
	want := hw.BodyCycles(bodyFaultService, hw.PLI) +
		(hw.CycDiskQueue + hw.CycDiskSeekShort + frames*hw.CycDiskRecord) +
		(hw.CycDiskQueue + hw.CycDiskRecord)
	if got := f.meter.Cycles() - before; got != want {
		t.Errorf("batch eviction fault cost %d cycles, want %d", got, want)
	}
	if evictions := f.m.Stats().Evictions; evictions != frames {
		t.Errorf("evictions = %d, want %d", evictions, frames)
	}
	// Every dirty page landed in its record.
	buf := make([]hw.Word, hw.PageWords)
	for i := 0; i < frames; i++ {
		if err := f.pack.ReadRecord(recs[i], buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != hw.Word(10+i) || buf[1] != hw.Word(100+i) {
			t.Errorf("record of page %d holds %d/%d, want %d/%d", i, buf[0], buf[1], 10+i, 100+i)
		}
	}
	// The surplus victims' frames are on the free list: reloading the
	// evicted pages costs no further eviction.
	if free := f.m.FreeFrames(); free != frames-1 {
		t.Errorf("FreeFrames = %d, want the batch's %d surplus frames free", free, frames-1)
	}
	for i := 0; i < frames-1; i++ {
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: i, Pack: f.pack, Record: recs[i], HasRecord: true}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if evictions := f.m.Stats().Evictions; evictions != frames {
		t.Errorf("reloads evicted again: evictions = %d, want still %d", evictions, frames)
	}
}
