package disk

import (
	"testing"

	"multics/internal/hw"
)

// A grouped submission through the device queue writes every record
// and prices each positioning movement by distance on the pack's
// device account: an adjacent run transfers back to back with no seek
// at all, so elevator-ordered batches are rewarded.
func TestQueueWriteBatch(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 8, meter)
	var recs []RecordAddr
	var bufs [][]hw.Word
	for i := 0; i < 3; i++ {
		r, err := p.AllocRecord()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]hw.Word, hw.PageWords)
		buf[0] = hw.Word(100 + i)
		recs = append(recs, r)
		bufs = append(bufs, buf)
	}
	if err := p.QueueWriteBatch(recs, bufs); err != nil {
		t.Fatal(err)
	}
	// Records 0,1,2 from a head parked at 0: three back-to-back
	// transfers, no positioning.
	if got, want := p.DeviceCycles(), int64(3*hw.CycDiskRecord); got != want {
		t.Errorf("adjacent batch of 3 cost %d cycles, want %d (three back-to-back transfers)", got, want)
	}
	dst := make([]hw.Word, hw.PageWords)
	for i, r := range recs {
		if err := p.ReadRecord(r, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0] != hw.Word(100+i) {
			t.Errorf("record %d word 0 = %d, want %d", r, dst[0], 100+i)
		}
	}
}

// The two seek tiers: a hop within ShortSeekSpan records pays the
// short tier, a hop beyond it the full average seek. A scattered
// batch is therefore measurably dearer than the same records sorted.
func TestQueueWriteBatchSeekTiers(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 512, meter)
	buf := make([]hw.Word, hw.PageWords)
	// Park the head at record 2.
	if err := p.WriteRecord(2, buf); err != nil {
		t.Fatal(err)
	}
	// 2 -> 10 short, 10 -> 12 short, 12 -> 400 long.
	if err := p.QueueWriteBatch([]RecordAddr{10, 12, 400}, [][]hw.Word{buf, buf, buf}); err != nil {
		t.Fatal(err)
	}
	want := int64(2*hw.CycDiskSeekShort + hw.CycDiskSeek + 3*hw.CycDiskRecord)
	if got := p.DeviceCycles(); got != want {
		t.Errorf("tiered batch cost %d cycles, want %d (two short seeks, one long, three transfers)", got, want)
	}
}

// Validation happens before the batch joins the queue: a bad entry
// anywhere in it leaves every record untouched and the device idle.
func TestQueueWriteBatchValidatesUpFront(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 4, meter)
	r, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	good := make([]hw.Word, hw.PageWords)
	good[0] = 55
	if err := p.WriteRecord(r, good); err != nil {
		t.Fatal(err)
	}
	good[0] = 99
	if err := p.QueueWriteBatch([]RecordAddr{r, RecordAddr(9)}, [][]hw.Word{good, good}); err == nil {
		t.Error("out-of-range record in batch accepted")
	}
	if err := p.QueueWriteBatch([]RecordAddr{r, r}, [][]hw.Word{good, good[:5]}); err == nil {
		t.Error("short buffer in batch accepted")
	}
	if err := p.QueueWriteBatch([]RecordAddr{r}, [][]hw.Word{good, good}); err == nil {
		t.Error("mismatched batch lengths accepted")
	}
	if enq, _ := p.QueueStats(); enq != 0 {
		t.Errorf("%d rejected batches reached the device queue", enq)
	}
	dst := make([]hw.Word, hw.PageWords)
	if err := p.ReadRecord(r, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 55 {
		t.Errorf("rejected batch modified record: word 0 = %d, want 55", dst[0])
	}
}
