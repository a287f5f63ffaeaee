// Package fnp simulates the front-end communications processor: the
// connection plane that multiplexes massive terminal counts onto the
// answering service. Ciccarelli's redesign (internal/netmux) left a
// small generic demultiplexer in the kernel; this package is the
// machine that demultiplexer feeds — the Multics front-end processor
// organization, scaled until cycles per connection, not source lines,
// is the figure of merit.
//
// The organization is three ideas:
//
//   - A sharded connection table. Connections are slots in a flat
//     array, sharded by low bits, so lookup is O(1) and consumers on
//     different shards never contend. A line is 16 bytes — its
//     credits, queue depth, drop count and the index of its ring —
//     so a million lines take 16 MB, with no per-connection
//     goroutines or channels. The frame buffers live apart: a shard
//     lends a line one of its rings only while the line has frames
//     queued, and takes it back when the last one is popped.
//
//   - Per-connection bounded rings with credit-based flow control. A
//     frame consumes one credit at enqueue; the consumer returns the
//     credit only after it has processed the frame. A slow consumer
//     therefore throttles exactly its own line — its ring fills, its
//     frames drop (counted, traced, never silent) — while every other
//     connection keeps its full window. The mux is never blocked.
//
//   - Eventcount-driven delivery. Each shard advances a delivery
//     eventcount per accepted frame; consumers drain, then Await the
//     count they last read plus one. The read-drain-await idiom is the
//     wakeup-waiting switch in eventcount form: a frame enqueued
//     between the drain and the await has already advanced the count,
//     so the await returns immediately — no lost-wakeup window. The
//     schedule sweeps pin this in every explored interleaving.
package fnp

import (
	"fmt"
	"math/bits"
	"sync"

	"multics/internal/eventcount"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

// ModuleName is the connection plane's name in kernel traces.
const ModuleName = "front-end-processor"

// RingSlots is each connection's bounded ring capacity — and, because
// a credit is a ring slot, its flow-control window.
const RingSlots = 4

// DefaultShards is the connection-table shard count when Config
// leaves it zero.
const DefaultShards = 32

// Algorithm-body costs, in the style of every manager: routing one
// frame into its connection ring, and returning one credit.
const (
	bodyRoute  = 8
	bodyCredit = 2
)

// latBuckets sizes the log2 delivery-latency histogram; cycle deltas
// fit in 64 buckets by construction.
const latBuckets = 64

// Config parameterizes New.
type Config struct {
	// Connections is the table size; connection ids are [0, n).
	Connections int
	// Shards must be a power of two; zero selects DefaultShards.
	Shards int
	// Meter charges the simulated routing and credit costs; nil runs
	// unmetered (latency stamps then all read zero).
	Meter *hw.CostMeter
	// Trace receives frame, drop and credit events, and the delivery
	// eventcounts' await/advance, attributed to ModuleName; nil when
	// untraced.
	Trace *trace.Recorder
}

// A Delivery is one frame handed to a consumer: the connection it
// belongs to, its data, and the simulated cycles it waited between
// enqueue and delivery.
type Delivery struct {
	Conn    int
	Data    []hw.Word
	Latency int64
}

// conn is one terminal line: the credit window, the queue depth and
// the drop counter, in 16 bytes so the per-frame path touches one
// small cache line per line. Guarded by the owning shard's lock.
type conn struct {
	// credits are the free window slots from the producer's view: a
	// frame consumes one at enqueue, the consumer returns it after
	// processing. count+popped-but-uncredited = RingSlots-credits, so
	// the ring can never overflow.
	credits uint8
	// count is how many frames are queued in the line's ring. A line
	// is on its shard's round-robin delivery list exactly while
	// count > 0.
	count uint8
	// ring indexes the shard's ring slab; it is meaningful only while
	// count > 0, when the line holds a lent ring.
	ring  uint32
	drops int64
}

// ring is the frame buffer a shard lends a line while the line has
// frames queued: the frames and their enqueue stamps, oldest at head.
type ring struct {
	data  [RingSlots][]hw.Word
	stamp [RingSlots]int64
	head  uint8
}

// shard is one slice of the connection table with its own lock,
// pending list and delivery eventcount.
type shard struct {
	mu lockableMutex
	// pending is a FIFO of connection ids with queued frames; a
	// connection appears at most once (it joins when its count leaves
	// zero), so the list is bounded by the shard's connection count.
	pending []uint32
	phead   int

	// rings is the shard's slab of lendable rings and free the LIFO
	// list of the unlent ones. The slab grows by append to the most
	// lines that had frames queued at once and never shrinks.
	rings []ring
	free  []uint32

	frames    int64
	drops     int64
	delivered int64
	credits   int64

	latHist [latBuckets]int64
	latMax  int64

	// ec is advanced once per accepted frame; consumers idle on it.
	ec eventcount.Eventcount
}

// lockableMutex lets the shard lock participate in deterministic
// schedules: under schedsim the acquisition is a yield point like any
// ranked lock's.
type lockableMutex struct{ mu sync.Mutex }

func (l *lockableMutex) Lock() {
	if schedsim.LockAcquire(&l.mu, "fnp-shard") {
		return
	}
	l.mu.Lock()
}
func (l *lockableMutex) Unlock() { l.mu.Unlock() }

// An FNP is one front-end processor: the sharded connection table.
type FNP struct {
	meter     *hw.CostMeter
	conns     []conn
	shards    []shard
	shardMask uint32
	trace     *trace.Recorder
}

// New builds the connection table.
func New(cfg Config) (*FNP, error) {
	if cfg.Connections <= 0 {
		return nil, fmt.Errorf("fnp: %d connections", cfg.Connections)
	}
	n := cfg.Shards
	if n == 0 {
		n = DefaultShards
	}
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fnp: shard count %d is not a power of two", n)
	}
	f := &FNP{
		meter:     cfg.Meter,
		conns:     make([]conn, cfg.Connections),
		shards:    make([]shard, n),
		shardMask: uint32(n - 1),
		trace:     cfg.Trace,
	}
	for i := range f.conns {
		f.conns[i].credits = RingSlots
	}
	for i := range f.shards {
		f.shards[i].ec.Trace(cfg.Trace, ModuleName)
	}
	return f, nil
}

// Shards reports the shard count.
func (f *FNP) Shards() int { return len(f.shards) }

// ShardOf reports which shard owns a connection.
func (f *FNP) ShardOf(connID int) int { return int(uint32(connID) & f.shardMask) }

// DeliveryEC returns a shard's delivery eventcount, advanced once per
// accepted frame. Consumers idle with the read-drain-await idiom:
//
//	seen := f.DeliveryEC(sh).Read()
//	for drained := f.Drain(sh, handle); drained == 0; {
//		f.DeliveryEC(sh).Await(seen + 1)
//		...
//	}
func (f *FNP) DeliveryEC(sh int) *eventcount.Eventcount { return &f.shards[sh].ec }

func (f *FNP) cycles() int64 {
	if f.meter == nil {
		return 0
	}
	return f.meter.Cycles()
}

// Enqueue routes one frame into its connection's ring, consuming one
// flow-control credit, and advances the shard's delivery eventcount.
// It reports false — and counts the drop — when the connection is out
// of credits: the frame is lost, the mux and every other connection
// are untouched.
func (f *FNP) Enqueue(connID int, data []hw.Word) bool {
	if connID < 0 || connID >= len(f.conns) {
		return false
	}
	if f.meter != nil {
		f.meter.AddBody(ModuleName, bodyRoute, hw.PLI)
	}
	sh := &f.shards[f.ShardOf(connID)]
	sh.mu.Lock()
	c := &f.conns[connID]
	if c.credits == 0 {
		c.drops++
		sh.drops++
		credits := int64(c.credits)
		sh.mu.Unlock()
		if f.trace != nil {
			f.trace.Emit(trace.Event{
				Kind: trace.EvNetDrop, Module: ModuleName,
				Arg0: int64(connID), Arg1: netmux.DropNoCredit, Arg2: credits,
			})
		}
		return false
	}
	c.credits--
	if c.count == 0 {
		c.ring = sh.lend()
		sh.pending = append(sh.pending, uint32(connID))
	}
	r := &sh.rings[c.ring]
	slot := (r.head + c.count) % RingSlots
	r.data[slot] = data
	r.stamp[slot] = f.cycles()
	c.count++
	sh.frames++
	sh.mu.Unlock()
	// The lost-wakeup window: the frame is queued but the eventcount
	// has not yet moved. A consumer preempted in here must still see
	// the frame — either its drain finds it, or the Advance below
	// outruns its Await. The sweep tests deviate at this mark.
	schedsim.Yield(schedsim.PointMark, "fnp-deliver")
	sh.ec.Advance()
	if f.trace != nil {
		f.trace.Emit(trace.Event{
			Kind: trace.EvNetFrame, Module: ModuleName,
			Arg0: int64(connID), Arg1: int64(len(data)), Arg2: 1,
		})
	}
	return true
}

// lend takes a ring for a line whose queue goes from empty to one
// frame: the most recently returned one, or a new slab slot. Called
// with the shard lock held.
func (sh *shard) lend() uint32 {
	if n := len(sh.free); n > 0 {
		idx := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return idx
	}
	sh.rings = append(sh.rings, ring{})
	return uint32(len(sh.rings) - 1)
}

// Subscriber adapts the table to a netmux network whose channel
// numbers are connection ids: attach it with Mux.Subscribe and every
// demultiplexed frame lands in its connection's ring.
func (f *FNP) Subscriber() func(netmux.Delivery) {
	return func(d netmux.Delivery) { f.Enqueue(d.Channel, d.Data) }
}

// Next pops the next delivery from a shard, round-robin across its
// pending connections. The popped frame's credit stays consumed until
// the consumer calls Credit — that is what makes a slow consumer
// throttle only itself. Returns false when the shard has no queued
// frames.
func (f *FNP) Next(shIdx int) (Delivery, bool) {
	sh := &f.shards[shIdx]
	sh.mu.Lock()
	d, ok := f.pop(sh)
	sh.mu.Unlock()
	return d, ok
}

// pop takes the next delivery off sh. Called with the shard lock
// held.
func (f *FNP) pop(sh *shard) (Delivery, bool) {
	if sh.phead == len(sh.pending) {
		return Delivery{}, false
	}
	id := sh.pending[sh.phead]
	sh.phead++
	if sh.phead == len(sh.pending) {
		sh.pending = sh.pending[:0]
		sh.phead = 0
	} else if sh.phead >= 1024 && sh.phead*2 >= len(sh.pending) {
		// Compact the consumed prefix so a long-lived storm does
		// not grow the list by one slot per re-appended pop.
		sh.pending = append(sh.pending[:0], sh.pending[sh.phead:]...)
		sh.phead = 0
	}
	// Every listed line has a frame queued: it joined with its first
	// and leaves with its last.
	c := &f.conns[id]
	r := &sh.rings[c.ring]
	data := r.data[r.head]
	r.data[r.head] = nil
	lat := f.cycles() - r.stamp[r.head]
	r.head = (r.head + 1) % RingSlots
	c.count--
	if c.count > 0 {
		sh.pending = append(sh.pending, id)
	} else {
		// The last queued frame is out: the ring goes back to the
		// shard. The frame's credit is still consumed, but an
		// uncredited frame holds no ring.
		sh.free = append(sh.free, c.ring)
	}
	sh.delivered++
	if lat < 0 {
		lat = 0
	}
	b := bits.Len64(uint64(lat))
	sh.latHist[b]++
	if lat > sh.latMax {
		sh.latMax = lat
	}
	return Delivery{Conn: int(id), Data: data, Latency: lat}, true
}

// Credit returns one flow-control credit to a connection, reopening a
// window slot for the mux. Consumers call it once per processed
// delivery; a consumer that forgets is a slow consumer by definition.
// A credit for a line whose window is already full returns nothing:
// it is neither counted nor traced.
func (f *FNP) Credit(connID int) {
	if connID < 0 || connID >= len(f.conns) {
		return
	}
	f.meter.AddBody(ModuleName, bodyCredit, hw.PLI)
	sh := &f.shards[f.ShardOf(connID)]
	sh.mu.Lock()
	credits, ok := f.credit(sh, connID)
	sh.mu.Unlock()
	if ok {
		f.credited(connID, credits)
	}
}

// credit returns one credit to connID on its shard sh, reporting the
// line's window afterwards and whether a credit was returned at all.
// Called with the shard lock held.
func (f *FNP) credit(sh *shard, connID int) (int64, bool) {
	c := &f.conns[connID]
	if c.credits == RingSlots {
		return 0, false
	}
	c.credits++
	sh.credits++
	return int64(c.credits), true
}

// credited follows a returned credit, after the shard lock is
// released.
func (f *FNP) credited(connID int, credits int64) {
	// The credit-return window the sweeps deviate at: the window slot
	// is open but no new frame has claimed it yet.
	schedsim.Yield(schedsim.PointMark, "fnp-credit")
	if f.trace != nil {
		f.trace.Emit(trace.Event{
			Kind: trace.EvNetCredit, Module: ModuleName,
			Arg0: int64(connID), Arg1: credits,
		})
	}
}

// Drain pops every queued delivery from a shard, handing each to fn
// and returning its credit afterwards. It reports how many frames it
// delivered. Each frame's credit and the next frame's pop share one
// hold of the shard lock, so draining n frames takes n+1 holds where a
// Next and Credit loop takes 2n+1. The charges, latencies and events
// are that loop's, in its order: the credit's charge comes before the
// hold, and its fnp-credit mark and event after it.
func (f *FNP) Drain(shIdx int, fn func(Delivery)) int {
	sh := &f.shards[shIdx]
	sh.mu.Lock()
	d, ok := f.pop(sh)
	sh.mu.Unlock()
	n := 0
	for ok {
		if fn != nil {
			fn(d)
		}
		n++
		conn := d.Conn
		f.meter.AddBody(ModuleName, bodyCredit, hw.PLI)
		sh.mu.Lock()
		credits, credited := f.credit(sh, conn)
		d, ok = f.pop(sh)
		sh.mu.Unlock()
		if credited {
			f.credited(conn, credits)
		}
	}
	return n
}

// Stats are the plane-wide counters.
type Stats struct {
	// Connections is the table size.
	Connections int
	// Frames counts accepted frames (credit consumed, ring filled).
	Frames int64
	// Drops counts frames lost to connections out of credits.
	Drops int64
	// Delivered counts frames popped by consumers.
	Delivered int64
	// Credits counts credits returned by consumers.
	Credits int64
	// PendingConns is how many connections have queued frames now.
	PendingConns int
}

// Stats folds the per-shard counters.
func (f *FNP) Stats() Stats {
	st := Stats{Connections: len(f.conns)}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		st.Frames += sh.frames
		st.Drops += sh.drops
		st.Delivered += sh.delivered
		st.Credits += sh.credits
		st.PendingConns += len(sh.pending) - sh.phead
		sh.mu.Unlock()
	}
	return st
}

// ConnStats are one connection's counters: the isolation surface —
// a slow consumer's drops land here and nowhere else.
type ConnStats struct {
	Queued  int
	Credits int
	Drops   int64
}

// ConnStats reports one connection's counters.
func (f *FNP) ConnStats(connID int) ConnStats {
	if connID < 0 || connID >= len(f.conns) {
		return ConnStats{}
	}
	sh := &f.shards[f.ShardOf(connID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := &f.conns[connID]
	return ConnStats{
		Queued:  int(c.count),
		Credits: int(c.credits),
		Drops:   c.drops,
	}
}

// LatencyPercentile reports the p-th percentile delivery latency in
// simulated cycles, computed from the log2 histogram: the value is
// the matched bucket's upper bound, clamped to the exact observed
// maximum — deterministic, like the latency observatory's percentiles.
func (f *FNP) LatencyPercentile(p float64) int64 {
	var hist [latBuckets]int64
	var total, max int64
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for b, n := range sh.latHist {
			hist[b] += n
			total += n
		}
		if sh.latMax > max {
			max = sh.latMax
		}
		sh.mu.Unlock()
	}
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	need := int64(float64(total)*p/100 + 0.5)
	if need < 1 {
		need = 1
	}
	var cum int64
	for b, n := range hist {
		cum += n
		if cum >= need {
			upper := int64(1)<<uint(b) - 1
			if upper > max || b == latBuckets-1 {
				upper = max
			}
			return upper
		}
	}
	return max
}
