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
//     different shards never contend. The table holds a million
//     connections without per-connection goroutines or channels.
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
}

// A Delivery is one frame handed to a consumer: the connection it
// belongs to, its data, and the simulated cycles it waited between
// enqueue and delivery.
type Delivery struct {
	Conn    int
	Data    []hw.Word
	Latency int64
}

// conn is one terminal line: a bounded ring of frames, the credit
// window, and its counters. Guarded by the owning shard's lock.
type conn struct {
	ring  [RingSlots][]hw.Word
	stamp [RingSlots]int64
	head  uint8
	count uint8
	// credits are the free window slots from the producer's view: a
	// frame consumes one at enqueue, the consumer returns it after
	// processing. count+popped-but-uncredited = RingSlots-credits, so
	// the ring can never overflow.
	credits uint8
	// pending marks the connection as queued on the shard's
	// round-robin delivery list.
	pending   bool
	drops     int64
	delivered int64
}

// shard is one slice of the connection table with its own lock,
// pending list and delivery eventcount.
type shard struct {
	mu lockableMutex
	// pending is a FIFO of connection ids with queued frames; a
	// connection appears at most once (conn.pending), so the list is
	// bounded by the shard's connection count.
	pending []uint32
	phead   int

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
	}
	for i := range f.conns {
		f.conns[i].credits = RingSlots
	}
	return f, nil
}

// SetTrace routes frame, drop and credit events — and the delivery
// eventcounts' await/advance — to rec, attributed to ModuleName.
func (f *FNP) SetTrace(rec *trace.Recorder) {
	f.trace = rec
	for i := range f.shards {
		f.shards[i].ec.Trace(rec, ModuleName)
	}
}

// Connections reports the table size.
func (f *FNP) Connections() int { return len(f.conns) }

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
		f.meter.AddBody(bodyRoute, hw.PLI)
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
				Kind: trace.EvNetDrop, Module: ModuleName, Cost: bodyRoute,
				Arg0: int64(connID), Arg1: netmux.DropNoCredit, Arg2: credits,
			})
		}
		return false
	}
	c.credits--
	slot := (c.head + c.count) % RingSlots
	c.ring[slot] = data
	c.stamp[slot] = f.cycles()
	c.count++
	sh.frames++
	if !c.pending {
		c.pending = true
		sh.pending = append(sh.pending, uint32(connID))
	}
	sh.mu.Unlock()
	// The lost-wakeup window: the frame is queued but the eventcount
	// has not yet moved. A consumer preempted in here must still see
	// the frame — either its drain finds it, or the Advance below
	// outruns its Await. The sweep tests deviate at this mark.
	schedsim.Yield(schedsim.PointMark, "fnp-deliver")
	sh.ec.Advance()
	if f.trace != nil {
		f.trace.Emit(trace.Event{
			Kind: trace.EvNetFrame, Module: ModuleName, Cost: bodyRoute,
			Arg0: int64(connID), Arg1: int64(len(data)), Arg2: 1,
		})
	}
	return true
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
	for sh.phead < len(sh.pending) {
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
		c := &f.conns[id]
		if c.count == 0 {
			c.pending = false
			continue
		}
		data := c.ring[c.head]
		c.ring[c.head] = nil
		lat := f.cycles() - c.stamp[c.head]
		c.head = (c.head + 1) % RingSlots
		c.count--
		if c.count > 0 {
			sh.pending = append(sh.pending, id)
		} else {
			c.pending = false
		}
		c.delivered++
		sh.delivered++
		if lat < 0 {
			lat = 0
		}
		b := bits.Len64(uint64(lat))
		sh.latHist[b]++
		if lat > sh.latMax {
			sh.latMax = lat
		}
		sh.mu.Unlock()
		return Delivery{Conn: int(id), Data: data, Latency: lat}, true
	}
	sh.mu.Unlock()
	return Delivery{}, false
}

// Credit returns one flow-control credit to a connection, reopening a
// window slot for the mux. Consumers call it once per processed
// delivery; a consumer that forgets is a slow consumer by definition.
func (f *FNP) Credit(connID int) {
	if connID < 0 || connID >= len(f.conns) {
		return
	}
	if f.meter != nil {
		f.meter.AddBody(bodyCredit, hw.PLI)
	}
	sh := &f.shards[f.ShardOf(connID)]
	sh.mu.Lock()
	c := &f.conns[connID]
	if c.credits < RingSlots {
		c.credits++
	}
	credits := int64(c.credits)
	sh.credits++
	sh.mu.Unlock()
	// The credit-return window the sweeps deviate at: the window slot
	// is open but no new frame has claimed it yet.
	schedsim.Yield(schedsim.PointMark, "fnp-credit")
	if f.trace != nil {
		f.trace.Emit(trace.Event{
			Kind: trace.EvNetCredit, Module: ModuleName, Cost: bodyCredit,
			Arg0: int64(connID), Arg1: credits,
		})
	}
}

// Drain pops every queued delivery from a shard, handing each to fn
// and returning its credit afterwards. It reports how many frames it
// delivered.
func (f *FNP) Drain(shIdx int, fn func(Delivery)) int {
	n := 0
	for {
		d, ok := f.Next(shIdx)
		if !ok {
			return n
		}
		if fn != nil {
			fn(d)
		}
		f.Credit(d.Conn)
		n++
	}
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
	Queued    int
	Credits   int
	Drops     int64
	Delivered int64
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
		Queued:    int(c.count),
		Credits:   int(c.credits),
		Drops:     c.drops,
		Delivered: c.delivered,
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
