package fnp

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

// TestConnSize pins the line layout: the per-frame path touches one
// small cache line per terminal line, and a million lines stay 16 MB.
func TestConnSize(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got != 16 {
		t.Errorf("unsafe.Sizeof(conn{}) = %d, want 16", got)
	}
}

// TestCreditWithFullWindowReturnsNothing: a credit for a line whose
// window is already full is neither counted nor traced, so "delivered
// / credited" cannot read more credits than frames.
func TestCreditWithFullWindowReturnsNothing(t *testing.T) {
	rec := trace.NewRecorder(0, nil)
	f, err := New(Config{Connections: 4, Shards: 1, Meter: &hw.CostMeter{}, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	f.Credit(1)
	f.Credit(1)
	if st := f.Stats(); st.Credits != 0 || st.Delivered != 0 {
		t.Fatalf("credits/delivered on a fresh table = %d/%d, want 0/0", st.Credits, st.Delivered)
	}
	if n := len(eventsOf(rec, trace.EvNetCredit)); n != 0 {
		t.Fatalf("%d net-credit events for credits that returned nothing", n)
	}
	if cs := f.ConnStats(1); cs.Credits != RingSlots {
		t.Fatalf("window = %d, want %d", cs.Credits, RingSlots)
	}
	// A real credit still counts once, however many follow it.
	f.Enqueue(1, []hw.Word{1})
	f.Next(0)
	f.Credit(1)
	f.Credit(1)
	if st := f.Stats(); st.Credits != 1 {
		t.Fatalf("credits = %d, want 1", st.Credits)
	}
}

// TestRingsLentOnlyWhileQueued walks the slab through a burst: a ring
// is lent when a line's first frame arrives, returned when its last
// is popped (credited or not), and reused before the slab grows.
func TestRingsLentOnlyWhileQueued(t *testing.T) {
	f, _ := newFNP(t, 16, 2)
	sh := &f.shards[0]
	for id := 0; id < 8; id += 2 {
		f.Enqueue(id, []hw.Word{hw.Word(id)})
		f.Enqueue(id, []hw.Word{hw.Word(id)})
	}
	if len(sh.rings) != 4 || len(sh.free) != 0 {
		t.Fatalf("4 queued lines: %d rings, %d free", len(sh.rings), len(sh.free))
	}
	if len(f.shards[1].rings) != 0 {
		t.Fatal("a shard with nothing queued holds rings")
	}
	// Pop every frame without crediting: the windows stay consumed,
	// but no uncredited frame holds a ring.
	for {
		if _, ok := f.Next(0); !ok {
			break
		}
	}
	if len(sh.free) != len(sh.rings) {
		t.Fatalf("after the drain %d of %d rings are free", len(sh.free), len(sh.rings))
	}
	if cs := f.ConnStats(0); cs.Credits != RingSlots-2 {
		t.Fatalf("uncredited window = %d, want %d", cs.Credits, RingSlots-2)
	}
	// A second, smaller burst reuses the returned rings.
	f.Enqueue(10, []hw.Word{10})
	f.Enqueue(12, []hw.Word{12})
	if len(sh.rings) != 4 || len(sh.free) != 2 {
		t.Fatalf("second burst: %d rings, %d free, want 4 and 2", len(sh.rings), len(sh.free))
	}
}

// TestLentRingsMatchReference runs seeded operation sequences against
// the table and against refFNP, the fully materialized layout the
// lent rings replaced, and requires every observable to agree: each
// delivery's connection, data identity and latency, every return
// value and drop, Stats and LatencyPercentile. It also holds the slab
// invariants after every step: a shard lends exactly one ring per
// line with frames queued, its slab never exceeds the most such lines
// at once, and a drained shard has every ring back on its free list.
func TestLentRingsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runReferenceSequence(t, seed)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// TestPendingCompactionMatchesReference keeps more than 1,024 lines
// queued on one shard across pops, so Next compacts the consumed prefix
// of the shard's pending list, and holds every delivery, the
// statistics and the slab to the reference model throughout.
func TestPendingCompactionMatchesReference(t *testing.T) {
	const lines = 1100
	f, meter := newFNP(t, lines, 1)
	ref := newRefFNP(lines, 1)
	sh := &f.shards[0]
	peak := make([]int, 1)
	var seq hw.Word
	enqueue := func(id int) {
		seq++
		data := []hw.Word{seq}
		if got, want := f.Enqueue(id, data), ref.Enqueue(id, data); got != want {
			t.Fatalf("Enqueue(%d) = %v, reference %v", id, got, want)
		}
	}
	for id := 0; id < lines; id++ {
		for range RingSlots - 1 {
			enqueue(id)
		}
	}
	compactions := 0
	for step := 0; ; step++ {
		before := sh.phead
		d, ok := f.Next(0)
		rd, rok := ref.Next(0)
		if ok != rok || !sameDelivery(d, rd) {
			t.Fatalf("step %d Next: got %+v %v, reference %+v %v", step, d, ok, rd, rok)
		}
		if !ok {
			break
		}
		if before > 0 && sh.phead == 0 && len(sh.pending) > 0 {
			compactions++
		}
		f.Credit(d.Conn)
		ref.Credit(d.Conn)
		// Every seventh pop queues a fresh frame on the popped line,
		// so lines rejoin the list while its prefix is consumed.
		if step%7 == 0 {
			enqueue(d.Conn)
		}
		meter.Add(ModuleName, int64(step%13))
		ref.meter.Add(ModuleName, int64(step%13))
		checkSlab(t, f, peak)
	}
	if got, want := f.Stats(), ref.Stats(); got != want {
		t.Errorf("Stats = %+v, reference %+v", got, want)
	}
	if compactions == 0 {
		t.Fatalf("no pop compacted the pending list (peak %d lines queued)", peak[0])
	}
}

func runReferenceSequence(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	n := 1 + r.Intn(48)
	shards := 1 << r.Intn(4)
	f, meter := newFNP(t, n, shards)
	ref := newRefFNP(n, shards)
	// Slow lines never get a credit back; Drain, which credits every
	// frame it pops, runs only on shards without one.
	slow := make(map[int]bool)
	slowShard := make(map[int]bool)
	for i := r.Intn(4); i > 0; i-- {
		id := r.Intn(n)
		slow[id] = true
		slowShard[f.ShardOf(id)] = true
	}
	peak := make([]int, shards)
	var seq hw.Word
	same := func(op string, got, want Delivery, gotOK, wantOK bool) {
		t.Helper()
		if gotOK != wantOK || !sameDelivery(got, want) {
			t.Errorf("seed %d %s: got %+v %v, reference %+v %v", seed, op, got, gotOK, want, wantOK)
		}
	}
	id := func() int { return r.Intn(n+2) - 1 } // out of range at both ends
	for step := 0; step < 300 && !t.Failed(); step++ {
		switch op := r.Intn(100); {
		case op < 40:
			c := id()
			seq++
			data := []hw.Word{seq}
			if got, want := f.Enqueue(c, data), ref.Enqueue(c, data); got != want {
				t.Errorf("seed %d Enqueue(%d) = %v, reference %v", seed, c, got, want)
			}
		case op < 65:
			sh := r.Intn(shards)
			d, ok := f.Next(sh)
			rd, rok := ref.Next(sh)
			same("Next", d, rd, ok, rok)
			if ok && !slow[d.Conn] && r.Intn(4) != 0 {
				f.Credit(d.Conn)
				ref.Credit(d.Conn)
			}
		case op < 75:
			if c := id(); !slow[c] {
				f.Credit(c)
				ref.Credit(c)
			}
		case op < 83:
			sh := r.Intn(shards)
			if slowShard[sh] {
				break
			}
			var got, want []Delivery
			gn := f.Drain(sh, func(d Delivery) { got = append(got, d) })
			wn := ref.Drain(sh, func(d Delivery) { want = append(want, d) })
			if gn != wn || len(got) != len(want) {
				t.Errorf("seed %d Drain(%d) = %d, reference %d", seed, sh, gn, wn)
				break
			}
			for i := range got {
				same("Drain", got[i], want[i], true, true)
			}
		case op < 90:
			c := id()
			if got, want := f.ConnStats(c), ref.ConnStats(c); got != want {
				t.Errorf("seed %d ConnStats(%d) = %+v, reference %+v", seed, c, got, want)
			}
		default:
			k := r.Int63n(5000)
			meter.Add(ModuleName, k)
			ref.meter.Add(ModuleName, k)
		}
		checkSlab(t, f, peak)
		if got, want := f.Stats(), ref.Stats(); got != want {
			t.Errorf("seed %d step %d Stats = %+v, reference %+v", seed, step, got, want)
		}
	}
	// Drain every shard, slow lines included (popped, never credited).
	for sh := 0; sh < shards; sh++ {
		for {
			d, ok := f.Next(sh)
			rd, rok := ref.Next(sh)
			same("final Next", d, rd, ok, rok)
			if !ok || !rok {
				break
			}
			if !slow[d.Conn] {
				f.Credit(d.Conn)
				ref.Credit(d.Conn)
			}
		}
		if s := &f.shards[sh]; len(s.free) != len(s.rings) {
			t.Errorf("seed %d: drained shard %d has %d of %d rings free", seed, sh, len(s.free), len(s.rings))
		}
	}
	checkSlab(t, f, peak)
	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		if got, want := f.LatencyPercentile(p), ref.LatencyPercentile(p); got != want {
			t.Errorf("seed %d LatencyPercentile(%v) = %d, reference %d", seed, p, got, want)
		}
	}
}

func sameDelivery(a, b Delivery) bool {
	if a.Conn != b.Conn || a.Latency != b.Latency || len(a.Data) != len(b.Data) {
		return false
	}
	return len(a.Data) == 0 || &a.Data[0] == &b.Data[0]
}

// checkSlab holds the slab invariants: each shard lends exactly one
// ring per line with frames queued, and its slab never grew past the
// most such lines it has had at once (peak, updated here).
func checkSlab(t *testing.T, f *FNP, peak []int) {
	t.Helper()
	queued := make([]int, len(f.shards))
	for id := range f.conns {
		if f.conns[id].count > 0 {
			queued[f.ShardOf(id)]++
		}
	}
	for i := range f.shards {
		sh := &f.shards[i]
		if queued[i] > peak[i] {
			peak[i] = queued[i]
		}
		if lent := len(sh.rings) - len(sh.free); lent != queued[i] {
			t.Errorf("shard %d lends %d rings to %d queued lines", i, lent, queued[i])
		}
		if len(sh.rings) > peak[i] {
			t.Errorf("shard %d slab holds %d rings, most lines queued at once %d", i, len(sh.rings), peak[i])
		}
	}
}

// refFNP is the connection table with every line's ring and stamps
// materialized in the line, the layout before shards lent rings. It
// keeps the single-goroutine semantics only: no locks, eventcounts,
// traces or schedsim marks.
type refFNP struct {
	meter  *hw.CostMeter
	conns  []refConn
	shards []refShard
	mask   uint32
}

type refConn struct {
	ring    [RingSlots][]hw.Word
	stamp   [RingSlots]int64
	head    uint8
	count   uint8
	credits uint8
	pending bool
	drops   int64
}

type refShard struct {
	pending                           []uint32
	frames, drops, delivered, credits int64
	latHist                           [latBuckets]int64
	latMax                            int64
}

func newRefFNP(conns, shards int) *refFNP {
	f := &refFNP{
		meter:  &hw.CostMeter{},
		conns:  make([]refConn, conns),
		shards: make([]refShard, shards),
		mask:   uint32(shards - 1),
	}
	for i := range f.conns {
		f.conns[i].credits = RingSlots
	}
	return f
}

func (f *refFNP) shardOf(id int) *refShard { return &f.shards[uint32(id)&f.mask] }

func (f *refFNP) Enqueue(id int, data []hw.Word) bool {
	if id < 0 || id >= len(f.conns) {
		return false
	}
	f.meter.AddBody(ModuleName, bodyRoute, hw.PLI)
	sh, c := f.shardOf(id), &f.conns[id]
	if c.credits == 0 {
		c.drops++
		sh.drops++
		return false
	}
	c.credits--
	slot := (c.head + c.count) % RingSlots
	c.ring[slot] = data
	c.stamp[slot] = f.meter.Cycles()
	c.count++
	sh.frames++
	if !c.pending {
		c.pending = true
		sh.pending = append(sh.pending, uint32(id))
	}
	return true
}

func (f *refFNP) Next(s int) (Delivery, bool) {
	sh := &f.shards[s]
	for len(sh.pending) > 0 {
		id := sh.pending[0]
		sh.pending = sh.pending[1:]
		c := &f.conns[id]
		if c.count == 0 {
			c.pending = false
			continue
		}
		data := c.ring[c.head]
		c.ring[c.head] = nil
		lat := f.meter.Cycles() - c.stamp[c.head]
		c.head = (c.head + 1) % RingSlots
		c.count--
		if c.count > 0 {
			sh.pending = append(sh.pending, id)
		} else {
			c.pending = false
		}
		sh.delivered++
		if lat < 0 {
			lat = 0
		}
		sh.latHist[bits.Len64(uint64(lat))]++
		if lat > sh.latMax {
			sh.latMax = lat
		}
		return Delivery{Conn: int(id), Data: data, Latency: lat}, true
	}
	return Delivery{}, false
}

func (f *refFNP) Credit(id int) {
	if id < 0 || id >= len(f.conns) {
		return
	}
	f.meter.AddBody(ModuleName, bodyCredit, hw.PLI)
	c := &f.conns[id]
	if c.credits == RingSlots {
		return
	}
	c.credits++
	f.shardOf(id).credits++
}

func (f *refFNP) Drain(s int, fn func(Delivery)) int {
	n := 0
	for {
		d, ok := f.Next(s)
		if !ok {
			return n
		}
		fn(d)
		f.Credit(d.Conn)
		n++
	}
}

func (f *refFNP) Stats() Stats {
	st := Stats{Connections: len(f.conns)}
	for i := range f.shards {
		sh := &f.shards[i]
		st.Frames += sh.frames
		st.Drops += sh.drops
		st.Delivered += sh.delivered
		st.Credits += sh.credits
		st.PendingConns += len(sh.pending)
	}
	return st
}

func (f *refFNP) ConnStats(id int) ConnStats {
	if id < 0 || id >= len(f.conns) {
		return ConnStats{}
	}
	c := &f.conns[id]
	return ConnStats{Queued: int(c.count), Credits: int(c.credits), Drops: c.drops}
}

func (f *refFNP) LatencyPercentile(p float64) int64 {
	var hist [latBuckets]int64
	var total, hi int64
	for i := range f.shards {
		for b, n := range f.shards[i].latHist {
			hist[b] += n
			total += n
		}
		if f.shards[i].latMax > hi {
			hi = f.shards[i].latMax
		}
	}
	if total == 0 {
		return 0
	}
	p = min(max(p, 0), 100)
	need := max(int64(float64(total)*p/100+0.5), 1)
	var cum int64
	for b, n := range hist {
		cum += n
		if cum >= need {
			upper := int64(1)<<uint(b) - 1
			if upper > hi || b == latBuckets-1 {
				upper = hi
			}
			return upper
		}
	}
	return hi
}

// TestDrainTakesOneHoldPerFrame pins the drain's lock traffic: each
// frame's credit and the next frame's pop share one hold of the shard
// lock, so draining n frames on a deterministic-executor task makes
// n+1 "fnp-shard" lock decisions where a Next and Credit loop makes
// 2n+1. Nothing else may move: a twin plane drained by that loop must
// see the same deliveries with the same latencies, and the same
// events (credit events included) at the same meter readings.
func TestDrainTakesOneHoldPerFrame(t *testing.T) {
	const n = 9
	type plane struct {
		f     *FNP
		meter *hw.CostMeter
		rec   *trace.Recorder
	}
	build := func() plane {
		meter := &hw.CostMeter{}
		rec := trace.NewRecorder(0, meter)
		f, err := New(Config{Connections: 8, Shards: 2, Meter: meter, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		// n frames on shard 0's four lines, up to three on a line, the
		// meter moving between them so every latency differs.
		for i := 0; i < n; i++ {
			if !f.Enqueue(2*(i%4), []hw.Word{hw.Word(i)}) {
				t.Fatalf("enqueue %d refused", i)
			}
			meter.Add(ModuleName, int64(11*(i+1)))
		}
		return plane{f, meter, rec}
	}
	// onTask runs fn as the only task of a recorded schedule and
	// returns how many shard-lock decisions it made.
	onTask := func(name string, fn func()) int {
		rec := schedsim.Record(schedsim.Sticky())
		ex := schedsim.New(schedsim.Config{Name: name, Strategy: rec})
		ex.Go(name, fn)
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		holds := 0
		for _, d := range rec.Decisions() {
			if d.Point == schedsim.PointLock && d.Detail == "fnp-shard" {
				holds++
			}
		}
		return holds
	}
	a, b := build(), build()
	var got, want []Delivery
	drainHolds := onTask("drain", func() {
		if m := a.f.Drain(0, func(d Delivery) {
			got = append(got, d)
			a.meter.Add(ModuleName, int64(5*len(got)))
		}); m != n {
			t.Errorf("Drain delivered %d frames, want %d", m, n)
		}
	})
	loopHolds := onTask("loop", func() {
		for d, ok := b.f.Next(0); ok; d, ok = b.f.Next(0) {
			want = append(want, d)
			b.meter.Add(ModuleName, int64(5*len(want)))
			b.f.Credit(d.Conn)
		}
	})
	if drainHolds != n+1 || loopHolds != 2*n+1 {
		t.Errorf("draining %d frames took %d shard-lock holds (want %d); the Next and Credit loop %d (want %d)",
			n, drainHolds, n+1, loopHolds, 2*n+1)
	}
	if len(got) != len(want) {
		t.Fatalf("Drain delivered %d frames, the loop %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i], want[i]; g.Conn != w.Conn || g.Latency != w.Latency || !slices.Equal(g.Data, w.Data) {
			t.Errorf("delivery %d: Drain %+v, loop %+v", i, got[i], want[i])
		}
	}
	if ga, gb := a.rec.Events(), b.rec.Events(); !slices.Equal(ga, gb) {
		t.Errorf("Drain emitted %v\nthe loop emitted %v", ga, gb)
	}
	if credits := len(eventsOf(a.rec, trace.EvNetCredit)); credits != n {
		t.Errorf("%d credit events, want %d", credits, n)
	}
	if a.meter.Cycles() != b.meter.Cycles() || a.f.Stats() != b.f.Stats() {
		t.Errorf("Drain left meter %d and %+v; the loop meter %d and %+v",
			a.meter.Cycles(), a.f.Stats(), b.meter.Cycles(), b.f.Stats())
	}
}
