// The asynchronous per-pack disk pipeline: every pack carries a
// request queue serviced by a device context in CSCAN elevator order,
// so seek cost is paid by distance and grouped positioning is
// rewarded.
//
// The device context is not a free-running goroutine. The shared
// trace recorder assigns every event a global sequence number, so a
// device goroutine racing the processor that it just woke would make
// the event order — the repo's determinism surface — depend on the
// host scheduler. Instead the device seat is *donated*: a waiter that
// finds the seat empty takes it and services the queue (in elevator
// order, for every submitter) until its own request completes, then
// releases the seat and advances the completion eventcount so a
// blocked waiter can take over. The effect is the same overlap — a
// faulting process on pack A never waits behind transfers on packs
// B–D, and a second faulter on a busy pack blocks on the eventcount
// instead of spinning in the device path — while the service order
// stays a pure function of the submission order and, under the
// deterministic executor, of the schedule's choices at the
// PointDiskQueue/PointDisk yield points.
//
// Transfer cycles serviced from the queue are charged to the meter's
// global total but to no processor account (CostMeter.AddUnbound),
// and to the pack's own device account: the device does the work, the
// driving processor merely keeps its books. A parallel fault storm's
// makespan is then the busier of the busiest processor and the
// busiest pack, which is what lets it scale with pack count, not just
// processor count.
package disk

import (
	"fmt"
	"slices"
	"sync"

	"multics/internal/eventcount"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

// ShortSeekSpan is the head movement, in records, still covered by the
// short-seek cost tier; moves beyond it pay the full average seek.
const ShortSeekSpan = 64

// seekDelta returns the positioning cost of moving the heads from one
// record to another: nothing for the same or the adjacent record
// (back-to-back transfer), the short tier within ShortSeekSpan
// records, and the full average seek beyond it. This is what makes
// elevator ordering measurable — a sorted run of requests pays short
// or zero seeks where a scattered one pays full ones.
func seekDelta(from, to RecordAddr) int64 {
	d := int64(to - from)
	if d < 0 {
		d = -d
	}
	switch {
	case d <= 1:
		return 0
	case d <= ShortSeekSpan:
		return hw.CycDiskSeekShort
	default:
		return hw.CycDiskSeek
	}
}

// A request is one queued transfer. recs[0] is its elevator position.
// A read names its record and destination in rec and dst, so it needs
// no slices of its own; the transfer lands in the caller's dst.
type request struct {
	op          Op
	recs        []RecordAddr
	bufs        [][]hw.Word // OpRead: bufs[0] is the destination
	speculative bool
	rec         [1]RecordAddr
	dst         [1][]hw.Word

	// Guarded by the owning device's mutex.
	inflight bool
	done     bool
	err      error
}

// A device is one pack's request queue and service seat.
type device struct {
	mu      sync.Mutex
	pending []*request
	driving bool
	// completions advances once per completed request and once per
	// seat release; waiters block on it instead of spinning.
	completions eventcount.Eventcount

	cycles   int64 // device-account cycles, under mu
	maxDepth int
	enqueued int64

	// spare holds finished tickets for reuse, so neither a blocking
	// transfer nor a read-ahead allocates one. A ticket joins it only
	// once its request is done: a demand ticket when its submitter's
	// wait returns, a speculative one when its holder claims or
	// cancels it. Guarded by mu.
	spare []*Ticket
}

// A Ticket names one queued request; the holder of a speculative
// read-ahead claims it with Claim or abandons it with Cancel, and
// either hands it back to the device for reuse.
type Ticket struct {
	p *Pack
	r request
}

// ticket returns a ticket for a new request, reusing a spare one when
// the device has it.
func (p *Pack) ticket() *Ticket {
	d := &p.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.spare); n > 0 {
		t := d.spare[n-1]
		d.spare = d.spare[:n-1]
		return t
	}
	return &Ticket{p: p}
}

// read fills t's request in as a read of record r into dst.
func (t *Ticket) read(r RecordAddr, dst []hw.Word, speculative bool) *Ticket {
	t.r = request{op: OpRead, speculative: speculative, rec: [1]RecordAddr{r}, dst: [1][]hw.Word{dst}}
	t.r.recs, t.r.bufs = t.r.rec[:], t.r.dst[:]
	return t
}

// recycle puts a ticket whose request is done back on its device's
// spare list. The request is cleared, so the spare ticket keeps no
// destination frame alive, but stays marked done: a spare ticket never
// has a transfer outstanding.
func (t *Ticket) recycle() {
	d := &t.p.dev
	d.mu.Lock()
	t.r = request{done: true}
	d.spare = append(d.spare, t)
	d.mu.Unlock()
}

// QueueRead reads record r into dst through the pack's device queue,
// blocking until the transfer completes. The caller either drives the
// device itself (servicing the whole queue in elevator order on the
// way) or blocks on the completion eventcount while another submitter
// drives.
func (p *Pack) QueueRead(r RecordAddr, dst []hw.Word) error {
	if err := p.checkQueueable(r, dst); err != nil {
		return err
	}
	return p.enqueue(p.ticket().read(r, dst, false)).Claim()
}

// QueueReadAhead queues a speculative read of record r into dst and
// returns without waiting. The transfer is serviced when a demand
// submitter next drives the device (or when the returned ticket is
// claimed); until then the request sits in the elevator queue.
func (p *Pack) QueueReadAhead(r RecordAddr, dst []hw.Word) (*Ticket, error) {
	if err := p.checkQueueable(r, dst); err != nil {
		return nil, err
	}
	return p.enqueue(p.ticket().read(r, dst, true)), nil
}

// QueueWriteBatch writes a group of records through the device queue
// as one request, blocking until the group is on the pack. Within the
// group records transfer in the order given — callers sort them to
// earn the short-seek tier — and each record passes the same
// fault-plane check as an individual WriteRecord.
func (p *Pack) QueueWriteBatch(recs []RecordAddr, bufs [][]hw.Word) error {
	if len(recs) != len(bufs) {
		return fmt.Errorf("disk: QueueWriteBatch with %d records but %d buffers", len(recs), len(bufs))
	}
	if len(recs) == 0 {
		return nil
	}
	for i, r := range recs {
		if err := p.checkQueueable(r, bufs[i]); err != nil {
			return err
		}
	}
	t := p.ticket()
	t.r = request{op: OpWrite, recs: recs, bufs: bufs}
	return p.enqueue(t).Claim()
}

// checkQueueable validates one record/buffer pair before it joins the
// queue, so the driver never services a malformed request.
func (p *Pack) checkQueueable(r RecordAddr, buf []hw.Word) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMounted(); err != nil {
		return err
	}
	if len(buf) != hw.PageWords {
		return fmt.Errorf("disk: queued transfer buffer of %d words, want %d", len(buf), hw.PageWords)
	}
	if r < 0 || int(r) >= p.capacity {
		return fmt.Errorf("disk: record %d outside pack %s", r, p.id)
	}
	return nil
}

// enqueue appends t's request to the device queue and returns t.
func (p *Pack) enqueue(t *Ticket) *Ticket {
	r := &t.r
	// Joining the queue is a schedule decision point: sweeps put
	// windows around the submission/completion races.
	schedsim.Yield(schedsim.PointDiskQueue, "enqueue")
	d := &p.dev
	d.mu.Lock()
	d.pending = append(d.pending, r)
	d.enqueued++
	depth := len(d.pending)
	if depth > d.maxDepth {
		d.maxDepth = depth
	}
	d.mu.Unlock()
	// The submitter pays only the enqueue bookkeeping; the transfer
	// itself is device work.
	p.meter.Add(ModuleName, hw.CycDiskQueue)
	p.mu.Lock()
	tr := p.trace
	p.mu.Unlock()
	if tr != nil {
		var spec int64
		if r.speculative {
			spec = 1
		}
		tr.Emit(trace.Event{
			Kind: trace.EvDiskQueue, Module: ModuleName,
			Arg0: int64(r.recs[0]), Arg1: int64(depth), Arg2: spec,
		})
	}
	return t
}

// Wait blocks until the request completes and returns its error. If
// no submitter is driving the device, the waiter takes the seat and
// drives until its own request is done.
func (t *Ticket) Wait() error {
	d := &t.p.dev
	for {
		d.mu.Lock()
		if t.r.done {
			err := t.r.err
			d.mu.Unlock()
			return err
		}
		if !d.driving {
			d.driving = true
			d.mu.Unlock()
			t.p.drive(&t.r)
			continue
		}
		// Someone else is driving: block on the completion eventcount.
		// The count was read under d.mu with done still false, so the
		// completion that services this request must advance it past
		// the target — the wait cannot miss its wakeup.
		target := d.completions.Read() + 1
		d.mu.Unlock()
		d.completions.Await(target)
	}
}

// Claim waits for the request to complete, as Wait does, and hands
// the ticket back to the device: the holder must not touch it again.
// Only the holder waits on a ticket, and the driver that completed it
// touches it no more, so it is free for the next request once Wait
// returns.
func (t *Ticket) Claim() error {
	err := t.Wait()
	t.recycle()
	return err
}

// Cancel withdraws a speculative request and hands the ticket back to
// the device: the holder must not touch it again. A request still
// waiting in the queue is removed before any disk work happens and
// Cancel reports true; a request already serviced (or in flight under
// a concurrent driver) is waited out and discarded, so the ticket is
// never reused, nor its destination frame, before the transfer lands.
func (t *Ticket) Cancel() bool {
	d := &t.p.dev
	d.mu.Lock()
	if !t.r.done && !t.r.inflight {
		for i, r := range d.pending {
			if r == &t.r {
				d.pending = append(d.pending[:i], d.pending[i+1:]...)
				break
			}
		}
		d.mu.Unlock()
		t.recycle()
		return true
	}
	d.mu.Unlock()
	_ = t.Claim()
	return false
}

// drive services the queue in elevator order until `until` completes
// (every request when until is nil), then releases the seat. Each
// completion advances the eventcount and yields to the schedule, so
// under the deterministic executor every disk completion is a
// decision point.
func (p *Pack) drive(until *request) {
	d := &p.dev
	for {
		d.mu.Lock()
		if (until != nil && until.done) || len(d.pending) == 0 {
			d.driving = false
			d.mu.Unlock()
			// Wake the waiters: their request may be done, and if not
			// one of them must take the empty seat.
			d.completions.Advance()
			return
		}
		r := p.pickLocked()
		d.mu.Unlock()

		err := p.service(r)

		d.mu.Lock()
		r.done = true
		r.err = err
		d.mu.Unlock()
		d.completions.Advance()
		schedsim.Yield(schedsim.PointDisk, "complete")
	}
}

// pickLocked removes and returns the next request in CSCAN order: the
// smallest position at or beyond the current head, wrapping to the
// smallest position outright when the head has passed everything.
// Ties break toward the earlier submission, which keeps the order a
// pure function of the queue contents. Caller holds d.mu.
func (p *Pack) pickLocked() *request {
	d := &p.dev
	head := p.headPos()
	best, wrap := -1, -1
	for i, r := range d.pending {
		pos := r.recs[0]
		if pos >= head && (best < 0 || pos < d.pending[best].recs[0]) {
			best = i
		}
		if wrap < 0 || pos < d.pending[wrap].recs[0] {
			wrap = i
		}
	}
	if best < 0 {
		best = wrap
	}
	r := d.pending[best]
	d.pending = append(d.pending[:best], d.pending[best+1:]...)
	r.inflight = true
	return r
}

// headPos reads the current head position.
func (p *Pack) headPos() RecordAddr {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.head
}

// chargeDevice accrues transfer cycles to the meter's global total
// (but no processor account) and to the pack's device account.
// Caller holds p.mu.
func (p *Pack) chargeDevice(n int64) {
	p.meter.AddUnbound(ModuleName, n)
	d := &p.dev
	d.mu.Lock()
	d.cycles += n
	d.mu.Unlock()
}

// service performs one queued request against the pack, charging
// distance-based seek cost from the current head position.
func (p *Pack) service(r *request) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMounted(); err != nil {
		return err
	}
	switch r.op {
	case OpRead:
		rec := r.recs[0]
		p.trace.BeginSpan(trace.SpanDiskRead, ModuleName, int64(rec))
		defer p.trace.EndSpan(trace.SpanDiskRead)
		if err := p.faults.checkOp(OpRead, p.id, false); err != nil {
			p.noteInjected(int64(OpRead), err)
			return err
		}
		cost := seekDelta(p.head, rec) + hw.CycDiskRecord
		p.head = rec
		p.chargeDevice(cost)
		if p.trace != nil {
			p.trace.Emit(trace.Event{Kind: trace.EvDiskRead, Module: ModuleName, Arg0: int64(rec)})
		}
		if d, ok := p.data[rec]; ok {
			copy(r.bufs[0], d)
		} else {
			clear(r.bufs[0])
		}
		return nil
	case OpWrite:
		p.trace.BeginSpan(trace.SpanDiskWrite, ModuleName, int64(len(r.recs)))
		defer p.trace.EndSpan(trace.SpanDiskWrite)
		for i, rec := range r.recs {
			if err := p.faults.checkOp(OpWrite, p.id, true); err != nil {
				p.noteInjected(int64(OpWrite), err)
				return err
			}
			p.dirty = true
			cost := seekDelta(p.head, rec) + hw.CycDiskRecord
			p.head = rec
			p.chargeDevice(cost)
			if p.trace != nil {
				p.trace.Emit(trace.Event{Kind: trace.EvDiskWrite, Module: ModuleName, Arg0: int64(rec)})
			}
			d, ok := p.data[rec]
			if !ok {
				d = make([]hw.Word, hw.PageWords)
				p.data[rec] = d
			}
			copy(d, r.bufs[i])
		}
		return nil
	default:
		return fmt.Errorf("disk: queued request with op %v", r.op)
	}
}

// DeviceCycles reports the transfer cycles the pack's device has
// performed from its queue: the pack's share of a storm's makespan.
func (p *Pack) DeviceCycles() int64 {
	d := &p.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cycles
}

// AuditQueue checks the device queue's recycling rule and returns a
// description of every violation: a ticket on the spare list must be
// done, listed once, and absent from the pending queue, or the next
// request handed it could overwrite a transfer still outstanding.
func (p *Pack) AuditQueue() []string {
	d := &p.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	var bad []string
	for i, t := range d.spare {
		if !t.r.done {
			bad = append(bad, fmt.Sprintf("pack %s: spare ticket %d is not done", p.id, i))
		}
		if slices.Contains(d.pending, &t.r) {
			bad = append(bad, fmt.Sprintf("pack %s: spare ticket %d is still queued", p.id, i))
		}
		if slices.Contains(d.spare[:i], t) {
			bad = append(bad, fmt.Sprintf("pack %s: spare ticket %d is listed twice", p.id, i))
		}
	}
	return bad
}

// QueueStats reports the device queue's lifetime request count and
// high-water depth.
func (p *Pack) QueueStats() (enqueued int64, maxDepth int) {
	d := &p.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.enqueued, d.maxDepth
}
