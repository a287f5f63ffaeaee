package disk

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"multics/internal/hw"
	"multics/internal/schedsim"
)

func queuePage(w hw.Word) []hw.Word {
	buf := make([]hw.Word, hw.PageWords)
	buf[0] = w
	return buf
}

// A demand read drives the device itself; queued speculative requests
// are serviced in CSCAN elevator order, which the device-account total
// pins: the sorted service order pays short seeks where FIFO order
// would pay long ones.
func TestQueueElevatorOrder(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 512, meter)
	for _, r := range []RecordAddr{40, 50, 60, 300} {
		if err := p.WriteRecord(r, queuePage(hw.Word(1000+r))); err != nil {
			t.Fatal(err)
		}
	}
	// Park the head at 0 so every queued position lies ahead of it.
	dst := make([]hw.Word, hw.PageWords)
	if err := p.ReadRecord(0, dst); err != nil {
		t.Fatal(err)
	}

	specBufs := map[RecordAddr][]hw.Word{}
	var tickets []*Ticket
	for _, r := range []RecordAddr{300, 50, 60} { // scattered submission order
		buf := make([]hw.Word, hw.PageWords)
		specBufs[r] = buf
		tk, err := p.QueueReadAhead(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	demand := make([]hw.Word, hw.PageWords)
	if err := p.QueueRead(40, demand); err != nil {
		t.Fatal(err)
	}
	if demand[0] != 1040 {
		t.Errorf("demand read word 0 = %d, want 1040", demand[0])
	}
	// The demand driver services in elevator order and record 40 is
	// the lowest position at the head, so it stops there: the
	// speculative requests stay queued.
	if got := p.DeviceCycles(); got != hw.CycDiskSeekShort+hw.CycDiskRecord {
		t.Errorf("device cycles after demand = %d, want %d", got, hw.CycDiskSeekShort+hw.CycDiskRecord)
	}
	// Waiting for record 300, the last in elevator order, drives the
	// whole queue.
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// CSCAN from 40: 50 (short), 60 (short), 300 (long).
	want := int64(hw.CycDiskSeekShort+hw.CycDiskRecord) + // demand 0 -> 40
		int64(2*hw.CycDiskSeekShort+hw.CycDiskSeek+3*hw.CycDiskRecord)
	if got := p.DeviceCycles(); got != want {
		t.Errorf("device cycles after drain = %d, want %d (CSCAN order)", got, want)
	}
	for r, buf := range specBufs {
		if buf[0] != hw.Word(1000+r) {
			t.Errorf("speculative read of record %d word 0 = %d, want %d", r, buf[0], 1000+r)
		}
	}
	if enq, depth := p.QueueStats(); enq != 4 || depth != 4 {
		t.Errorf("queue stats = %d enqueued, depth %d; want 4, 4", enq, depth)
	}
}

// Cancel withdraws a still-pending speculative request before any disk
// work; a serviced one is merely discarded.
func TestQueueReadAheadCancel(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 64, meter)
	buf := make([]hw.Word, hw.PageWords)
	tk, err := p.QueueReadAhead(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Cancel() {
		t.Error("pending speculative request not canceled")
	}
	if got := p.DeviceCycles(); got != 0 {
		t.Errorf("canceled request charged %d device cycles", got)
	}
	tk2, err := p.QueueReadAhead(5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
	if tk2.Cancel() {
		t.Error("serviced request reported as canceled before service")
	}
}

// Injected faults reach queued reads exactly as they reach synchronous
// ones; the queue does not retry on its own.
func TestQueueReadInjectedFault(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 64, meter)
	p.SetFaultPlan(&FaultPlan{Rules: []Rule{{Op: OpRead, After: 0, Times: 1}}})
	buf := make([]hw.Word, hw.PageWords)
	if err := p.QueueRead(1, buf); !errors.Is(err, ErrTransient) {
		t.Fatalf("queued read error = %v, want ErrTransient", err)
	}
	if err := p.QueueRead(1, buf); err != nil {
		t.Fatalf("retried queued read: %v", err)
	}
}

// Concurrent demand readers on one pack share the device seat: one
// drives, the others block on the completion eventcount, and every
// read completes with its own data.
func TestQueueConcurrentWaiters(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 256, meter)
	for r := 0; r < 8; r++ {
		if err := p.WriteRecord(RecordAddr(r), queuePage(hw.Word(100+r))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	vals := make([]hw.Word, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]hw.Word, hw.PageWords)
			errs[i] = p.QueueRead(RecordAddr(i), buf)
			vals[i] = buf[0]
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if vals[i] != hw.Word(100+i) {
			t.Errorf("reader %d got word %d, want %d", i, vals[i], 100+i)
		}
	}
}

// spareHolds reports whether t is on p's spare ticket list.
func spareHolds(p *Pack, t *Ticket) bool {
	p.dev.mu.Lock()
	defer p.dev.mu.Unlock()
	for _, s := range p.dev.spare {
		if s == t {
			return true
		}
	}
	return false
}

// A canceled speculative ticket goes back on its device's spare list,
// but never before its transfer is settled: a queued read is withdrawn
// first, and a read in flight under another driver is waited out, so
// the next request handed the ticket cannot have a transfer still
// outstanding under it, and the destination frame is not written after
// the canceller lets it go.
func TestQueueCanceledTicketRecycledAfterTransfer(t *testing.T) {
	meter := &hw.CostMeter{}
	p := NewPack("dska", 64, meter)
	if err := p.WriteRecord(7, queuePage(707)); err != nil {
		t.Fatal(err)
	}

	// Queued: Cancel dequeues the read and recycles the ticket at once.
	buf := make([]hw.Word, hw.PageWords)
	tk, err := p.QueueReadAhead(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Cancel() {
		t.Fatal("queued speculative request not canceled")
	}
	if !spareHolds(p, tk) {
		t.Error("canceled queued ticket not recycled")
	}
	if bad := p.AuditQueue(); len(bad) != 0 {
		t.Errorf("audit after queued cancel: %v", bad)
	}
	again, err := p.QueueReadAhead(7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if again != tk {
		t.Fatal("the next read-ahead did not reuse the recycled ticket")
	}

	// In flight: play a concurrent driver that has picked the read and
	// not yet serviced it. Under the deterministic executor the
	// canceller runs until Cancel parks it on the completion
	// eventcount, and only then does the driver land the transfer, so
	// Cancel must have waited it out rather than recycled early.
	d := &p.dev
	d.mu.Lock()
	d.driving = true
	r := p.pickLocked()
	d.mu.Unlock()
	if r != &again.r {
		t.Fatal("driver picked another request")
	}
	var parked, withdrew bool
	ex := schedsim.New(schedsim.Config{Name: "cancel-in-flight"})
	ex.Go("canceller", func() {
		parked = true
		withdrew = again.Cancel()
	})
	ex.Go("driver", func() {
		schedsim.Block("canceller parked", func() bool { return parked })
		if spareHolds(p, again) {
			t.Error("ticket recycled while its transfer is in flight")
		}
		// Land the transfer and give up the seat, as drive does.
		if err := p.service(r); err != nil {
			t.Error(err)
		}
		d.mu.Lock()
		r.done = true
		d.mu.Unlock()
		d.completions.Advance()
		d.mu.Lock()
		d.driving = false
		d.mu.Unlock()
		d.completions.Advance()
	})
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if withdrew {
		t.Error("in-flight request reported as withdrawn before service")
	}
	if buf[0] != 707 {
		t.Errorf("destination word 0 = %d after the transfer landed, want 707", buf[0])
	}
	if !spareHolds(p, again) {
		t.Error("ticket not recycled once its transfer landed")
	}
	if bad := p.AuditQueue(); len(bad) != 0 {
		t.Errorf("audit after in-flight cancel: %v", bad)
	}
}

// The queue audit flags a spare ticket whose request is not done, one
// still queued, and one listed twice.
func TestAuditQueueFindsBadSpares(t *testing.T) {
	p := NewPack("dska", 64, &hw.CostMeter{})
	buf := make([]hw.Word, hw.PageWords)
	tk, err := p.QueueReadAhead(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	d := &p.dev
	d.mu.Lock()
	d.spare = append(d.spare, tk, tk)
	d.mu.Unlock()
	bad := p.AuditQueue()
	for _, want := range []string{"not done", "still queued", "listed twice"} {
		found := false
		for _, b := range bad {
			found = found || strings.Contains(b, want)
		}
		if !found {
			t.Errorf("audit findings %q miss %q", bad, want)
		}
	}
}
