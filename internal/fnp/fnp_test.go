package fnp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

func newFNP(t *testing.T, conns, shards int) (*FNP, *hw.CostMeter) {
	t.Helper()
	meter := &hw.CostMeter{}
	f, err := New(Config{Connections: conns, Shards: shards, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	return f, meter
}

func TestEnqueueDrainRoundTrip(t *testing.T) {
	f, _ := newFNP(t, 64, 4)
	for i := 0; i < 64; i++ {
		if !f.Enqueue(i, []hw.Word{hw.Word(i)}) {
			t.Fatalf("enqueue %d refused with full credits", i)
		}
	}
	seen := make(map[int]bool)
	total := 0
	for sh := 0; sh < f.Shards(); sh++ {
		total += f.Drain(sh, func(d Delivery) {
			if len(d.Data) != 1 || d.Data[0] != hw.Word(d.Conn) {
				t.Errorf("conn %d got %v", d.Conn, d.Data)
			}
			seen[d.Conn] = true
		})
	}
	if total != 64 || len(seen) != 64 {
		t.Fatalf("drained %d frames over %d conns, want 64/64", total, len(seen))
	}
	st := f.Stats()
	if st.Frames != 64 || st.Delivered != 64 || st.Credits != 64 || st.Drops != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PendingConns != 0 {
		t.Fatalf("pending connections after full drain: %+v", st)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Connections: 0}); err == nil {
		t.Error("zero-connection table accepted")
	}
	if _, err := New(Config{Connections: 8, Shards: 3}); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
	f, _ := newFNP(t, 8, 1)
	if f.Enqueue(-1, nil) || f.Enqueue(8, nil) {
		t.Error("out-of-range connection accepted")
	}
	f.Credit(-1) // must not panic
	if st := f.ConnStats(99); st != (ConnStats{}) {
		t.Error("out-of-range ConnStats nonzero")
	}
}

// TestSlowConsumerThrottlesOnlyItself is the flow-control property:
// a connection whose consumer never returns credits drops its own
// overflow and nothing else.
func TestSlowConsumerThrottlesOnlyItself(t *testing.T) {
	f, _ := newFNP(t, 8, 1)
	const slow, fast = 3, 5
	// The slow consumer's line takes RingSlots frames, then drops.
	accepted := 0
	for i := 0; i < RingSlots+6; i++ {
		if f.Enqueue(slow, []hw.Word{hw.Word(i)}) {
			accepted++
		}
	}
	if accepted != RingSlots {
		t.Fatalf("slow line accepted %d, want the %d-slot window", accepted, RingSlots)
	}
	cs := f.ConnStats(slow)
	if cs.Drops != 6 || cs.Credits != 0 || cs.Queued != RingSlots {
		t.Fatalf("slow conn stats = %+v", cs)
	}
	// The fast line, same shard, is completely unaffected: deliver
	// and credit many times its window.
	for i := 0; i < 4*RingSlots; i++ {
		if !f.Enqueue(fast, []hw.Word{'f'}) {
			t.Fatalf("healthy line refused frame %d while a neighbor is throttled", i)
		}
		// Pop until this round's fast frame comes out; the slow
		// conn's frames pop too but never get their credits back —
		// that consumer is the slow one.
		for {
			d, ok := f.Next(0)
			if !ok {
				t.Fatal("queued frame missing")
			}
			if d.Conn == fast {
				f.Credit(fast)
				break
			}
		}
	}
	if cs := f.ConnStats(fast); cs.Drops != 0 {
		t.Fatalf("healthy line dropped %d frames", cs.Drops)
	}
	// Returning the slow line's credits reopens it.
	for i := 0; i < RingSlots; i++ {
		f.Credit(slow)
	}
	if !f.Enqueue(slow, []hw.Word{'s'}) {
		t.Fatal("slow line still closed after credits returned")
	}
}

// TestEventcountConsumer runs a real blocked consumer: the
// read-drain-await idiom must see every frame with no lost wakeup.
func TestEventcountConsumer(t *testing.T) {
	f, _ := newFNP(t, 4, 1)
	const frames = 200
	var got atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ec := f.DeliveryEC(0)
		for got.Load() < frames {
			seen := ec.Read()
			n := f.Drain(0, func(d Delivery) { got.Add(1) })
			if n == 0 {
				ec.Await(seen + 1)
			}
		}
	}()
	for i := 0; i < frames; i++ {
		for !f.Enqueue(i%4, []hw.Word{hw.Word(i)}) {
			// Out of credits: the consumer is behind; the producer
			// retries (a terminal with flow control pushes back).
		}
	}
	<-done
	if got.Load() != frames {
		t.Fatalf("consumer saw %d frames, want %d", got.Load(), frames)
	}
}

func TestMuxSubscriberFeedsConnections(t *testing.T) {
	meter := &hw.CostMeter{}
	m := netmux.New(netmux.GenericKernel, meter)
	if err := m.Attach(netmux.FrontEnd{Terminals: 16}); err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Connections: 16, Shards: 2, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe("front-end", f.Subscriber()); err != nil {
		t.Fatal(err)
	}
	for term := 0; term < 16; term++ {
		payload := []hw.Word{hw.Word('a' + term), 0o777}
		if err := m.Deliver(nil, "front-end", netmux.Frame{Channel: term, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.Frames != 16 {
		t.Fatalf("connection plane saw %d frames, want 16", st.Frames)
	}
	d, ok := f.Next(f.ShardOf(6))
	if !ok || len(d.Data) != 1 {
		t.Fatalf("delivery = %+v, %v", d, ok)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	f, meter := newFNP(t, 2, 1)
	if f.LatencyPercentile(50) != 0 {
		t.Error("empty histogram nonzero")
	}
	// Enqueue, burn metered cycles, then deliver: latency is the
	// burned span.
	f.Enqueue(0, []hw.Word{'x'})
	meter.Add(1000)
	d, ok := f.Next(0)
	if !ok {
		t.Fatal("frame missing")
	}
	if d.Latency < 1000 {
		t.Fatalf("latency = %d, want >= 1000", d.Latency)
	}
	f.Credit(0)
	// A second, immediate delivery lands in a low bucket.
	f.Enqueue(1, []hw.Word{'y'})
	if _, ok := f.Next(0); !ok {
		t.Fatal("second frame missing")
	}
	p99 := f.LatencyPercentile(99)
	if p99 < 1000 {
		t.Fatalf("p99 = %d, want clamped near the observed max", p99)
	}
	if p50 := f.LatencyPercentile(50); p50 > p99 {
		t.Fatalf("p50 %d > p99 %d", p50, p99)
	}
}

func TestTraceEvents(t *testing.T) {
	f, _ := newFNP(t, 4, 1)
	rec := trace.NewRecorder(0, nil)
	f.SetTrace(rec)
	for i := 0; i < RingSlots+1; i++ {
		f.Enqueue(0, []hw.Word{hw.Word(i)})
	}
	f.Drain(0, nil)
	if n := len(eventsOf(rec, trace.EvNetFrame)); n != RingSlots {
		t.Errorf("EvNetFrame = %d, want %d", n, RingSlots)
	}
	drops := eventsOf(rec, trace.EvNetDrop)
	if len(drops) != 1 || drops[0].Arg1 != netmux.DropNoCredit {
		t.Errorf("drops = %+v", drops)
	}
	if n := len(eventsOf(rec, trace.EvNetCredit)); n != RingSlots {
		t.Errorf("EvNetCredit = %d, want %d", n, RingSlots)
	}
	for _, e := range rec.Events() {
		if e.Module != ModuleName && e.Kind != trace.EvAdvance && e.Kind != trace.EvAwait {
			t.Errorf("event %v from module %q", e.Kind, e.Module)
		}
	}
}

// eventsOf returns the recorded events of kind k, oldest first.
func eventsOf(rec *trace.Recorder, k trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestConcurrentStorm hammers the table from parallel producers and
// per-shard consumers under -race: accepted+dropped = sent, and every
// accepted frame is delivered exactly once.
func TestConcurrentStorm(t *testing.T) {
	f, _ := newFNP(t, 1024, 8)
	const (
		producers = 4
		perProd   = 2000
	)
	var accepted, dropped, delivered atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	var consumers sync.WaitGroup
	for sh := 0; sh < f.Shards(); sh++ {
		consumers.Add(1)
		go func(sh int) {
			defer consumers.Done()
			ec := f.DeliveryEC(sh)
			for {
				seen := ec.Read()
				n := f.Drain(sh, func(Delivery) { delivered.Add(1) })
				if n > 0 {
					continue
				}
				if stop.Load() {
					// Final drain after producers stopped.
					f.Drain(sh, func(Delivery) { delivered.Add(1) })
					return
				}
				// The read-drain-await idiom; the shutdown advance
				// below wakes anyone parked here.
				ec.Await(seen + 1)
			}
		}(sh)
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				conn := (p*perProd + i*37) % f.Connections()
				if f.Enqueue(conn, []hw.Word{hw.Word(i)}) {
					accepted.Add(1)
				} else {
					dropped.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	stop.Store(true)
	for sh := 0; sh < f.Shards(); sh++ {
		f.DeliveryEC(sh).Advance()
	}
	consumers.Wait()
	if accepted.Load()+dropped.Load() != producers*perProd {
		t.Fatalf("accepted %d + dropped %d != %d", accepted.Load(), dropped.Load(), producers*perProd)
	}
	if delivered.Load() != accepted.Load() {
		t.Fatalf("delivered %d != accepted %d: frames lost or duplicated", delivered.Load(), accepted.Load())
	}
	st := f.Stats()
	if st.Frames != accepted.Load() || st.Drops != dropped.Load() || st.Delivered != delivered.Load() {
		t.Fatalf("stats %+v disagree with observed %d/%d/%d", st, accepted.Load(), dropped.Load(), delivered.Load())
	}
}

// TestSweepNoLostWakeupCreditReturn systematically explores the
// producer/consumer interleavings around the fnp-deliver and
// fnp-credit marks: in every explored schedule the blocked consumer
// must see every frame, including ones enqueued in the window between
// its empty drain and its await, and the producer must eventually
// reclaim the credit a slow pop holds. No schedule may end with a
// queued frame and a sleeping consumer.
func TestSweepNoLostWakeupCreditReturn(t *testing.T) {
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	const frames = 3
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Fallback:       schedsim.RoundRobin(),
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointMark &&
				(d.Detail == "fnp-deliver" || d.Detail == "fnp-credit")
		},
	}, func(strat schedsim.Strategy) error {
		f, err := New(Config{Connections: 2, Shards: 1})
		if err != nil {
			return err
		}
		var got int
		ex := schedsim.New(schedsim.Config{Name: "fnp-wakeup", Strategy: strat})
		ex.Go("producer", func() {
			for i := 0; i < frames; i++ {
				for !f.Enqueue(0, []hw.Word{hw.Word(i)}) {
					// Out of credits: the consumer holds them until
					// its credit return; yield until it does.
					schedsim.Yield(schedsim.PointYield, "fnp-retry")
				}
			}
		})
		ex.Go("consumer", func() {
			ec := f.DeliveryEC(0)
			for got < frames {
				seen := ec.Read()
				n := f.Drain(0, func(d Delivery) { got++ })
				if n == 0 {
					// The lost-wakeup window: a frame enqueued right
					// here must already have advanced the count.
					ec.Await(seen + 1)
				}
			}
		})
		if err := ex.Run(); err != nil {
			return err
		}
		if got != frames {
			return fmt.Errorf("consumer saw %d frames, want %d: wakeup lost", got, frames)
		}
		if st := f.Stats(); st.Delivered != frames || st.Credits != frames {
			return fmt.Errorf("stats %+v after clean run", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous: deliver/credit marks never opened over %d schedules", rep.Schedules)
	}
	t.Logf("%d schedules, %d in-window decisions, truncated=%v",
		rep.Schedules, rep.WindowDecisions, rep.Truncated)
}
