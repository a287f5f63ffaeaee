package netmux

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

func arpaFrame(channel int, words ...hw.Word) Frame {
	var parity hw.Word
	for _, w := range words {
		parity ^= w
	}
	payload := append([]hw.Word{parity & 1}, words...)
	return Frame{Channel: channel, Payload: payload}
}

func feFrame(channel int, words ...hw.Word) Frame {
	return Frame{Channel: channel, Payload: append(append([]hw.Word{}, words...), 0o777)}
}

func newMux(t *testing.T, mode Mode, rec *trace.Recorder) (*Mux, *hw.CostMeter) {
	t.Helper()
	meter := &hw.CostMeter{}
	m := New(mode, meter, rec)
	if err := m.Attach(Arpanet{Links: 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(FrontEnd{Terminals: 8}); err != nil {
		t.Fatal(err)
	}
	return m, meter
}

func TestDeliverAndReceive(t *testing.T) {
	m, _ := newMux(t, GenericKernel, nil)
	if err := m.Deliver(nil, "arpanet", arpaFrame(2, 10, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if err := m.Deliver(nil, "front-end", feFrame(5, 'h', 'i')); err != nil {
		t.Fatal(err)
	}
	d, ok := m.Receive("arpanet", 2)
	if !ok || len(d.Data) != 3 || d.Data[0] != 10 {
		t.Errorf("arpanet delivery = %+v, %v", d, ok)
	}
	d, ok = m.Receive("front-end", 5)
	if !ok || len(d.Data) != 2 || d.Data[1] != 'i' {
		t.Errorf("front-end delivery = %+v, %v", d, ok)
	}
	if _, ok := m.Receive("arpanet", 2); ok {
		t.Error("second receive returned data")
	}
	if m.Delivered() != 2 {
		t.Errorf("Delivered = %d", m.Delivered())
	}
}

func TestChannelIsolation(t *testing.T) {
	m, _ := newMux(t, GenericKernel, nil)
	if err := m.Deliver(nil, "arpanet", arpaFrame(1, 7)); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Receive("arpanet", 0); ok {
		t.Error("delivery leaked to another channel")
	}
	if _, ok := m.Receive("arpanet", 1); !ok {
		t.Error("delivery missing on its own channel")
	}
}

func TestValidation(t *testing.T) {
	m, _ := newMux(t, GenericKernel, nil)
	if err := m.Deliver(nil, "nonet", arpaFrame(0, 1)); err == nil {
		t.Error("delivery to unattached network succeeded")
	}
	if err := m.Deliver(nil, "arpanet", arpaFrame(99, 1)); !errors.Is(err, ErrBadChannel) {
		t.Errorf("bad channel = %v", err)
	}
	if err := m.Attach(Arpanet{Links: 1}); err == nil {
		t.Error("double attach succeeded")
	}
	// Protocol errors surface.
	if err := m.Deliver(nil, "arpanet", Frame{Channel: 0, Payload: []hw.Word{0, 99}}); err == nil {
		t.Error("parity mismatch accepted")
	}
	if err := m.Deliver(nil, "arpanet", Frame{Channel: 0}); err == nil {
		t.Error("empty arpanet frame accepted")
	}
	if err := m.Deliver(nil, "front-end", Frame{Channel: 0, Payload: []hw.Word{'x'}}); err == nil {
		t.Error("unterminated front-end block accepted")
	}
}

func TestKernelGrowthShapes(t *testing.T) {
	// P7: kernel bulk grows linearly with networks in the old
	// organization, and only slightly in the new one; at the
	// paper's two networks the old costs 7,000 lines and the new
	// residue is below 1,000.
	if got := KernelLines(PerNetworkKernel, 2); got != 7000 {
		t.Errorf("per-network lines at 2 nets = %d, want 7000", got)
	}
	if got := KernelLines(GenericKernel, 2); got >= 1000 {
		t.Errorf("generic lines at 2 nets = %d, want < 1000", got)
	}
	// Marginal cost of a third network.
	oldMarginal := KernelLines(PerNetworkKernel, 3) - KernelLines(PerNetworkKernel, 2)
	newMarginal := KernelLines(GenericKernel, 3) - KernelLines(GenericKernel, 2)
	if oldMarginal != PerNetworkLines {
		t.Errorf("old marginal = %d", oldMarginal)
	}
	if newMarginal >= oldMarginal/10 {
		t.Errorf("new marginal = %d vs old %d; should grow only slightly", newMarginal, oldMarginal)
	}
	m, _ := newMux(t, GenericKernel, nil)
	if m.KernelLines() != KernelLines(GenericKernel, 2) {
		t.Errorf("mux KernelLines = %d", m.KernelLines())
	}
	if len(m.Networks()) != 2 {
		t.Errorf("Networks = %v", m.Networks())
	}
}

func TestGenericKernelSpendsLessKernelTime(t *testing.T) {
	// The kernel-resident cycles per frame shrink in the new
	// organization (the protocol work still happens, but outside).
	kernelCycles := func(mode Mode) int64 {
		m, meter := newMux(t, mode, nil)
		cpu := hw.NewProcessor(0, hw.NewMemory(1), meter)
		cpu.Ring = hw.UserRing
		// Count only ring-zero work: measure with a second meter
		// attached to the gate path by differencing total minus
		// known user-side body.
		start := meter.Snapshot()
		for i := 0; i < 100; i++ {
			if err := m.Deliver(cpu, "arpanet", arpaFrame(0, hw.Word(i))); err != nil {
				t.Fatal(err)
			}
		}
		return meter.Since(start)
	}
	oldTotal := kernelCycles(PerNetworkKernel)
	newTotal := kernelCycles(GenericKernel)
	// Total work is similar (same protocol), within 25%.
	diff := oldTotal - newTotal
	if diff < 0 {
		diff = -diff
	}
	if diff*4 > oldTotal {
		t.Errorf("total frame cost diverged: old %d, new %d", oldTotal, newTotal)
	}
}

func TestModeNames(t *testing.T) {
	if PerNetworkKernel.String() == "" || GenericKernel.String() == "" {
		t.Error("mode names empty")
	}
	if (Arpanet{}).Name() != "arpanet" || (FrontEnd{}).Name() != "front-end" {
		t.Error("network names wrong")
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

func TestErrorPathsAreCountedAndTraced(t *testing.T) {
	for _, mode := range []Mode{PerNetworkKernel, GenericKernel} {
		t.Run(mode.String(), func(t *testing.T) {
			rec := trace.NewRecorder(0, nil)
			m, meter := newMux(t, mode, rec)
			meter.Attach(rec)
			// ErrBadChannel: rejected before any protocol work, so no
			// protocol-error counter moves.
			if err := m.Deliver(nil, "arpanet", arpaFrame(99, 1)); !errors.Is(err, ErrBadChannel) {
				t.Fatalf("bad channel = %v", err)
			}
			if st := m.MuxStats(); st.ProtocolErrors != 0 {
				t.Fatalf("bad channel counted as protocol error: %+v", st)
			}
			// Arpanet parity mismatch.
			if err := m.Deliver(nil, "arpanet", Frame{Channel: 0, Payload: []hw.Word{0, 99}}); err == nil {
				t.Fatal("parity mismatch accepted")
			}
			// Front-end unterminated block.
			if err := m.Deliver(nil, "front-end", Frame{Channel: 0, Payload: []hw.Word{'x'}}); err == nil {
				t.Fatal("unterminated block accepted")
			}
			st := m.MuxStats()
			if st.ProtocolErrors != 2 {
				t.Fatalf("ProtocolErrors = %d, want 2", st.ProtocolErrors)
			}
			if st.Delivered != 0 || st.Dropped != 0 {
				t.Fatalf("stats moved unexpectedly: %+v", st)
			}
			drops := eventsOf(rec, trace.EvNetDrop)
			if len(drops) != 2 {
				t.Fatalf("EvNetDrop events = %d, want 2", len(drops))
			}
			for _, e := range drops {
				if e.Arg1 != DropProtocol {
					t.Errorf("drop class = %d, want DropProtocol", e.Arg1)
				}
				if e.Module != ModuleName {
					t.Errorf("drop module = %q", e.Module)
				}
			}
			if rec.Snapshot().Modules[ModuleName].TotalCycles() == 0 {
				t.Error("protocol failures charged the demux nothing: the metered work is invisible")
			}
		})
	}
}

func TestGenericProtocolFailureIsMetered(t *testing.T) {
	// The satellite fix: a Process failure after the demux gate must
	// leave its cost on the meter (demux + protocol body), not vanish
	// with the early return.
	m, meter := newMux(t, GenericKernel, nil)
	start := meter.Snapshot()
	if err := m.Deliver(nil, "front-end", Frame{Channel: 0, Payload: []hw.Word{'x'}}); err == nil {
		t.Fatal("unterminated block accepted")
	}
	spent := meter.Since(start)
	if spent == 0 {
		t.Fatal("protocol failure cost nothing: the demux and protocol work disappeared")
	}
}

func TestBoundedQueueDropsAreCounted(t *testing.T) {
	rec := trace.NewRecorder(0, nil)
	m, _ := newMux(t, GenericKernel, rec)
	m.queueCap = 3 // before any delivery, so no lock
	for i := 0; i < 5; i++ {
		if err := m.Deliver(nil, "front-end", feFrame(1, hw.Word(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := m.MuxStats()
	if st.Delivered != 3 || st.Dropped != 2 {
		t.Fatalf("delivered/dropped = %d/%d, want 3/2", st.Delivered, st.Dropped)
	}
	// The slow channel lost its own frames; another channel of the
	// same network is untouched.
	if err := m.Deliver(nil, "front-end", feFrame(2, 'o', 'k')); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Receive("front-end", 2); !ok {
		t.Fatal("healthy channel starved by a neighbor's overflow")
	}
	if got := len(eventsOf(rec, trace.EvNetDrop)); got != 2 {
		t.Fatalf("EvNetDrop events = %d, want 2", got)
	}
	for _, e := range eventsOf(rec, trace.EvNetDrop) {
		if e.Arg1 != DropQueueFull {
			t.Errorf("drop class = %d, want DropQueueFull", e.Arg1)
		}
	}
	// Draining the queue reopens the channel.
	for i := 0; i < 3; i++ {
		if _, ok := m.Receive("front-end", 1); !ok {
			t.Fatalf("queued delivery %d missing", i)
		}
	}
	if err := m.Deliver(nil, "front-end", feFrame(1, 'y')); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Receive("front-end", 1); !ok {
		t.Fatal("channel still dead after drain")
	}
}

func TestSubscriberBypassesQueues(t *testing.T) {
	m, _ := newMux(t, GenericKernel, nil)
	var got []Delivery
	if err := m.Subscribe("front-end", func(d Delivery) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe("front-end", func(Delivery) {}); err == nil {
		t.Fatal("double subscribe succeeded")
	}
	if err := m.Subscribe("nonet", func(Delivery) {}); err == nil {
		t.Fatal("subscribe to unattached network succeeded")
	}
	if err := m.Deliver(nil, "front-end", feFrame(3, 'a', 'b')); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Channel != 3 || len(got[0].Data) != 2 {
		t.Fatalf("subscriber saw %+v", got)
	}
	if _, ok := m.Receive("front-end", 3); ok {
		t.Fatal("subscribed delivery also queued")
	}
	if m.Delivered() != 1 {
		t.Fatalf("Delivered = %d", m.Delivered())
	}
}

// TestConcurrentDeliverReceiveStorm hammers Deliver and Receive from
// many goroutines under -race: every frame is either received or
// counted dropped, never lost silently.
func TestConcurrentDeliverReceiveStorm(t *testing.T) {
	m, _ := newMux(t, GenericKernel, nil)
	m.queueCap = 8
	const (
		producers = 4
		consumers = 4
		perProd   = 500
		channels  = 8
	)
	var wg sync.WaitGroup
	var received atomic.Int64
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				got := false
				for ch := c % channels; ch < channels; ch += consumers {
					if _, ok := m.Receive("front-end", ch); ok {
						received.Add(1)
						got = true
					}
				}
				if !got {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}(c)
	}
	var deliverErrs atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				f := feFrame(i%channels, hw.Word(p), hw.Word(i))
				if err := m.Deliver(nil, "front-end", f); err != nil {
					deliverErrs.Add(1)
				}
			}
		}(p)
	}
	// Wait for producers, then let consumers drain what remains.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			goto drained
		default:
		}
		st := m.MuxStats()
		if st.Delivered+st.Dropped >= producers*perProd {
			break
		}
	}
drained:
	close(stop)
	<-done
	// Final drain on the main goroutine.
	for ch := 0; ch < channels; ch++ {
		for {
			if _, ok := m.Receive("front-end", ch); !ok {
				break
			}
			received.Add(1)
		}
	}
	if deliverErrs.Load() != 0 {
		t.Fatalf("%d well-formed frames rejected", deliverErrs.Load())
	}
	st := m.MuxStats()
	total := int64(producers * perProd)
	if st.Delivered+st.Dropped != total {
		t.Fatalf("delivered %d + dropped %d != %d sent", st.Delivered, st.Dropped, total)
	}
	if received.Load() != st.Delivered {
		t.Fatalf("received %d != delivered %d: frames lost silently", received.Load(), st.Delivered)
	}
}

// TestSubscribedDeliverAllocatesNothing: a frame for a subscribed
// network routes through the published attachment set, with no lock
// and no allocation, through the gate or without one, and the
// counters stay exact.
func TestSubscribedDeliverAllocatesNothing(t *testing.T) {
	m, meter := newMux(t, GenericKernel, nil)
	var consumed int64
	if err := m.Subscribe("front-end", func(Delivery) { consumed++ }); err != nil {
		t.Fatal(err)
	}
	cpu := hw.NewProcessor(0, hw.NewMemory(1), meter)
	f := feFrame(5, 'x')
	for _, c := range []*hw.Processor{nil, cpu} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := m.Deliver(c, "front-end", f); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Deliver (processor %v) allocates %.1f times per frame, want 0", c != nil, allocs)
		}
	}
	// AllocsPerRun runs its function once more than it measures.
	if want := int64(2 * 101); consumed != want || m.MuxStats() != (Stats{Delivered: want}) {
		t.Errorf("subscriber saw %d frames, MuxStats %+v, want %d delivered", consumed, m.MuxStats(), want)
	}
}

// TestAttachSubscribeDuringDeliverStorm attaches and subscribes a
// network while other goroutines deliver to a subscribed one, as a
// node's first internode link does once its terminals are flowing.
// Under -race no access may race, and every frame must be counted
// exactly once: delivered to the subscriber, or queued before the
// subscription and still receivable after it.
func TestAttachSubscribeDuringDeliverStorm(t *testing.T) {
	m, _ := newMux(t, GenericKernel, nil)
	var terminal, inter atomic.Int64
	if err := m.Subscribe("front-end", func(Delivery) { terminal.Add(1) }); err != nil {
		t.Fatal(err)
	}
	// Each producer delivers until the late network is wired, and at
	// least perProd frames.
	const producers, perProd = 2, 1000
	var sent atomic.Int64
	var wired atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd || !wired.Load(); i++ {
				if err := m.Deliver(nil, "front-end", feFrame(i%8, hw.Word(p))); err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
			}
		}(p)
	}
	for terminal.Load() == 0 && !t.Failed() {
		runtime.Gosched()
	}
	// The late network: attached mid-storm, fed one frame before its
	// subscription and one after.
	link := Internode{Links: 2}
	if err := m.Attach(link); err != nil {
		t.Fatal(err)
	}
	if err := m.Deliver(nil, "internode", Frame{Channel: 0, Payload: []hw.Word{0}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe("internode", func(Delivery) { inter.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Deliver(nil, "internode", Frame{Channel: 1, Payload: []hw.Word{1}}); err != nil {
		t.Fatal(err)
	}
	wired.Store(true)
	wg.Wait()
	if _, ok := m.Receive("internode", 0); !ok {
		t.Error("the frame queued before the subscription was lost")
	}
	if got := m.Networks(); len(got) != 3 || got[2] != "internode" {
		t.Errorf("Networks = %v", got)
	}
	want := sent.Load() + 2
	if terminal.Load() != sent.Load() || inter.Load() != 1 || m.MuxStats() != (Stats{Delivered: want}) {
		t.Errorf("front-end subscriber %d, internode %d, MuxStats %+v, want %d delivered",
			terminal.Load(), inter.Load(), m.MuxStats(), want)
	}
}

// TestSweepAttachSubscribeDuringDeliver explores the interleavings of
// a front-end deliverer with a task that attaches, feeds and
// subscribes the internode network, at every step of both. In every
// schedule each frame lands exactly once: a subscribed front-end
// frame at its subscriber, the internode frame delivered before the
// subscription in its queue (which the new attachment set keeps), and
// the one after at the new subscriber.
func TestSweepAttachSubscribeDuringDeliver(t *testing.T) {
	maxSched, maxPre := schedsim.EnvBudget(64, 2)
	const frames = 4
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointYield && d.Detail == "netmux-step"
		},
	}, func(strat schedsim.Strategy) error {
		m := New(GenericKernel, &hw.CostMeter{}, nil)
		if err := m.Attach(FrontEnd{Terminals: 8}); err != nil {
			return err
		}
		var terminal, inter int
		if err := m.Subscribe("front-end", func(Delivery) { terminal++ }); err != nil {
			return err
		}
		var errs []error
		step := func(err error) {
			if err != nil {
				errs = append(errs, err)
			}
			schedsim.Yield(schedsim.PointYield, "netmux-step")
		}
		ex := schedsim.New(schedsim.Config{Name: "netmux-attach", Strategy: strat})
		ex.Go("terminals", func() {
			for i := 0; i < frames; i++ {
				step(m.Deliver(nil, "front-end", feFrame(i, 'a')))
			}
		})
		ex.Go("internode", func() {
			step(m.Attach(Internode{Links: 2}))
			step(m.Deliver(nil, "internode", Frame{Channel: 0, Payload: []hw.Word{0}}))
			step(m.Subscribe("internode", func(Delivery) { inter++ }))
			step(m.Deliver(nil, "internode", Frame{Channel: 1, Payload: []hw.Word{1}}))
		})
		if err := ex.Run(); err != nil {
			return err
		}
		if len(errs) > 0 {
			return errs[0]
		}
		if _, ok := m.Receive("internode", 0); !ok {
			return errors.New("the frame queued before the subscription was lost")
		}
		if terminal != frames || inter != 1 || m.MuxStats() != (Stats{Delivered: frames + 2}) {
			return fmt.Errorf("front-end subscriber %d, internode %d, MuxStats %+v", terminal, inter, m.MuxStats())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous over %d schedules", rep.Schedules)
	}
	t.Logf("%d schedules, %d in-window decisions, truncated=%v", rep.Schedules, rep.WindowDecisions, rep.Truncated)
}
