package uproc

import (
	"errors"
	"testing"

	"multics/internal/aim"
	"multics/internal/coreseg"
	"multics/internal/disk"
	"multics/internal/eventcount"
	"multics/internal/hw"
	"multics/internal/knownseg"
	"multics/internal/pageframe"
	"multics/internal/quota"
	"multics/internal/segment"
	"multics/internal/trace"
	"multics/internal/upsignal"
	"multics/internal/vproc"
)

type fixture struct {
	meter *hw.CostMeter
	vps   *vproc.Manager
	segs  *segment.Manager
	queue *Queue
	m     *Manager
	rec   *trace.Recorder
}

// newFixture builds an untraced process manager over nvp virtual
// processors.
func newFixture(t *testing.T, nvp int) *fixture {
	t.Helper()
	return newFixtureWith(t, nvp, false)
}

// newFixtureWith is newFixture; when traced, the message queue and the
// manager are built with a recorder (f.rec) stamped from the fixture's
// meter.
func newFixtureWith(t *testing.T, nvp int, traced bool) *fixture {
	t.Helper()
	meter := &hw.CostMeter{}
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(0, meter)
	}
	mem := hw.NewMemory(4 + 32)
	cm, err := coreseg.NewManager(mem, 4, meter)
	if err != nil {
		t.Fatal(err)
	}
	states, _ := cm.Allocate("vp-states", nvp*vproc.StateWords)
	qtable, _ := cm.Allocate("quota-table", hw.PageWords)
	ast, _ := cm.Allocate("ast", hw.PageWords)
	qseg, _ := cm.Allocate("msg-queue", 16*MsgWords)
	vps, err := vproc.NewManager(nvp, states, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vps.BindKernel(pageframe.PageWriterModule); err != nil {
		t.Fatal(err)
	}
	if _, err := vps.BindKernel(SchedulerModule); err != nil {
		t.Fatal(err)
	}
	frames, err := pageframe.NewManager(mem, cm.FirstPageableFrame(), vps, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	vols := disk.NewVolumes(meter, nil)
	if _, err := vols.AddPack("dska", 256); err != nil {
		t.Fatal(err)
	}
	cells, err := quota.NewManager(vols, qtable, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := segment.NewManager(vols, frames, cells, ast, meter)
	if err != nil {
		t.Fatal(err)
	}
	signals := upsignal.NewDispatcher(nil)
	ksm := knownseg.NewManager(segs, signals, meter)
	queue, err := NewQueue(qseg, meter, rec)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(vps, segs, ksm, queue, meter, rec)
	m.StatePack = "dska"
	// A quota directory for process states.
	uid := segs.NewUID()
	cell, err := segs.Create("dska", uid, true, uid)
	if err != nil {
		t.Fatal(err)
	}
	if err := cells.InitCell(cell, 100); err != nil {
		t.Fatal(err)
	}
	m.StateCell = segment.CellRef{Cell: cell, UID: uid, Has: true}
	return &fixture{meter: meter, vps: vps, segs: segs, queue: queue, m: m, rec: rec}
}

func TestCreateArbitraryProcesses(t *testing.T) {
	// More processes than virtual processors: the point of the
	// two-level design.
	f := newFixture(t, 4) // 2 kernel-bound + 2 multiplexable
	for i := 0; i < 10; i++ {
		p, err := f.m.Create("user.proj", aim.Bottom)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if p.State() != Ready {
			t.Errorf("new process state = %v", p.State())
		}
	}
	if f.m.Count() != 10 {
		t.Errorf("Count = %d", f.m.Count())
	}
	if f.vps.N() != 4 {
		t.Errorf("virtual processors grew: %d", f.vps.N())
	}
	if _, err := f.m.Create("", aim.Bottom); err == nil {
		t.Error("empty principal accepted")
	}
}

func TestProcessStateInVirtualMemory(t *testing.T) {
	f := newFixture(t, 4)
	p, err := f.m.Create("user.proj", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	// The state segment is an ordinary active segment with the pid
	// in word 0.
	if _, err := f.segs.Lookup(p.StateSegment()); err != nil {
		t.Fatal(err)
	}
	w, err := f.segs.ReadWord(p.StateSegment(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(w) != p.ID() {
		t.Errorf("state word = %d, want pid %d", w, p.ID())
	}
}

func TestDispatchPreemptCycle(t *testing.T) {
	f := newFixture(t, 3) // 2 kernel + 1 multiplexable
	a, err := f.m.Create("a.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.m.Create("b.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.m.Dispatch()
	if err != nil {
		t.Fatal(err)
	}
	if got != a || a.State() != Running {
		t.Errorf("dispatched %v (%v)", got.ID(), got.State())
	}
	// Only one multiplexable vp: the second dispatch fails.
	if _, _, err := f.m.Dispatch(); err == nil {
		t.Error("dispatch without a free virtual processor succeeded")
	}
	if err := f.m.Preempt(a); err != nil {
		t.Fatal(err)
	}
	if a.State() != Ready {
		t.Errorf("preempted state = %v", a.State())
	}
	got, _, err = f.m.Dispatch()
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Errorf("round robin dispatched %d, want %d", got.ID(), b.ID())
	}
	if err := f.m.Preempt(b); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Preempt(b); err == nil {
		t.Error("double preempt succeeded")
	}
}

// TestFailedDispatchKeepsPlaceInLine pins requeueFront: a process
// popped by a dispatch that then finds no free virtual processor goes
// back to the front of its queue, ahead of the processes that were
// behind it and of any process preempted meanwhile.
func TestFailedDispatchKeepsPlaceInLine(t *testing.T) {
	f := newFixture(t, 4) // 2 kernel + 2 multiplexable
	var ps []*Process
	for i := 0; i < 4; i++ {
		p, err := f.m.Create("user.proj", aim.Bottom)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, want := range ps[:2] {
		got, _, err := f.m.Dispatch()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("dispatched %d, want %d", got.ID(), want.ID())
		}
	}
	if _, _, err := f.m.Dispatch(); !errors.Is(err, vproc.ErrNoFreeVP) {
		t.Fatalf("dispatch with both virtual processors bound: %v, want ErrNoFreeVP", err)
	}
	if err := f.m.Preempt(ps[0]); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.m.Dispatch()
	if err != nil {
		t.Fatal(err)
	}
	if got != ps[2] {
		t.Errorf("after a failed dispatch the next dispatch ran %d, want %d", got.ID(), ps[2].ID())
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit: %v", bad)
	}
}

func TestBlockWakeupDeliver(t *testing.T) {
	f := newFixture(t, 3)
	p, err := f.m.Create("a.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.m.Dispatch(); err != nil {
		t.Fatal(err)
	}
	var ec eventcount.Eventcount
	if err := f.m.Block(p, &ec, 1); err != nil {
		t.Fatal(err)
	}
	if p.State() != Blocked {
		t.Fatalf("state = %v", p.State())
	}
	// A wakeup before the eventcount advances does not unblock.
	if err := f.m.Wakeup(p.ID(), 0); err != nil {
		t.Fatal(err)
	}
	woken, err := f.m.DeliverEvents()
	if err != nil || woken != 0 {
		t.Fatalf("premature deliver = %d, %v", woken, err)
	}
	// Advance and wake: the process becomes ready.
	ec.Advance()
	if err := f.m.Wakeup(p.ID(), 0); err != nil {
		t.Fatal(err)
	}
	woken, err = f.m.DeliverEvents()
	if err != nil || woken != 1 {
		t.Fatalf("deliver = %d, %v", woken, err)
	}
	if p.State() != Ready {
		t.Errorf("state after wakeup = %v", p.State())
	}
	// And it can run again.
	got, _, err := f.m.Dispatch()
	if err != nil || got != p {
		t.Errorf("re-dispatch = %v, %v", got, err)
	}
}

func TestBroadcastWakeup(t *testing.T) {
	f := newFixture(t, 4)
	var ec eventcount.Eventcount
	var procs []*Process
	for i := 0; i < 2; i++ {
		p, err := f.m.Create("u.x", aim.Bottom)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.m.Dispatch(); err != nil {
			t.Fatal(err)
		}
		if err := f.m.Block(p, &ec, 1); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	ec.Advance()
	// Process-id 0 is a broadcast: the discoverer of the event does
	// not know who is waiting.
	if err := f.m.Wakeup(0, 7); err != nil {
		t.Fatal(err)
	}
	woken, err := f.m.DeliverEvents()
	if err != nil || woken != 2 {
		t.Fatalf("broadcast deliver = %d, %v", woken, err)
	}
	for _, p := range procs {
		if p.State() != Ready {
			t.Errorf("process %d state = %v", p.ID(), p.State())
		}
	}
}

func TestQueueIsRealMemoryAndBounded(t *testing.T) {
	f := newFixture(t, 3)
	// Core segments are allocated in whole frames, so the queue
	// holds a frame's worth of messages.
	cap := f.queue.cap
	if cap != hw.PageWords/MsgWords {
		t.Fatalf("cap = %d", cap)
	}
	for i := 0; i < cap; i++ {
		if err := f.queue.Post(Message{Kind: 1, Process: uint64(i)}); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := f.queue.Post(Message{Kind: 1}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("post to full queue: %v", err)
	}
	if f.queue.n != cap {
		t.Errorf("queued = %d", f.queue.n)
	}
	msgs, err := f.queue.Drain()
	if err != nil || len(msgs) != cap {
		t.Fatalf("Drain = %d msgs, %v", len(msgs), err)
	}
	for i, msg := range msgs {
		if msg.Process != uint64(i) {
			t.Errorf("msg %d = %+v; FIFO broken", i, msg)
		}
	}
	if f.queue.posted.Read() != uint64(cap) {
		t.Errorf("posted eventcount = %d", f.queue.posted.Read())
	}
	// Ring wraps correctly after drain.
	if err := f.queue.Post(Message{Kind: 2, Process: 99}); err != nil {
		t.Fatal(err)
	}
	msgs, _ = f.queue.Drain()
	if len(msgs) != 1 || msgs[0].Process != 99 {
		t.Errorf("post after wrap = %+v", msgs)
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	f := newFixture(t, 3)
	p, err := f.m.Create("a.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.m.Dispatch(); err != nil {
		t.Fatal(err)
	}
	free := f.vps.FreeVPs()
	if err := f.m.Destroy(p); err != nil {
		t.Fatal(err)
	}
	if f.vps.FreeVPs() != free+1 {
		t.Error("virtual processor not released")
	}
	if _, err := f.segs.Lookup(p.StateSegment()); err == nil {
		t.Error("state segment survived destruction")
	}
	if _, err := f.m.Lookup(p.ID()); err == nil {
		t.Error("destroyed process still registered")
	}
	if err := f.m.Destroy(p); err == nil {
		t.Error("double destroy succeeded")
	}
	if f.m.Count() != 0 {
		t.Errorf("Count = %d", f.m.Count())
	}
}

func TestRunQuantum(t *testing.T) {
	f := newFixture(t, 3)
	for i := 0; i < 3; i++ {
		if _, err := f.m.Create("u.x", aim.Bottom); err != nil {
			t.Fatal(err)
		}
	}
	var ran []uint64
	cpus := []*hw.Processor{hw.NewProcessor(0, nil, f.meter)}
	n, err := f.m.RunQuantumWith(SimExecutor{Seed: 1}, cpus, 5, func(_ *hw.Processor, p *Process) {
		ran = append(ran, p.ID())
		p.AddCPU(10)
	})
	if err != nil || n != 5 {
		t.Fatalf("RunQuantumWith = %d, %v", n, err)
	}
	// Round robin over three processes: 1,2,3,1,2.
	want := []uint64{1, 2, 3, 1, 2}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("order = %v, want %v", ran, want)
		}
	}
	p1, _ := f.m.Lookup(1)
	if p1.CPU() != 20 {
		t.Errorf("CPU accounting = %d", p1.CPU())
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{Ready, Running, Blocked, Dead, State(9)} {
		if s.String() == "" {
			t.Errorf("State(%d) empty", int(s))
		}
	}
}

func TestNewQueueValidation(t *testing.T) {
	if _, err := NewQueue(nil, nil, nil); err == nil {
		t.Error("nil segment accepted")
	}
}
