package vproc

import (
	"errors"
	"testing"

	"multics/internal/coreseg"
	"multics/internal/eventcount"
	"multics/internal/hw"
)

func newManager(t *testing.T, n int) (*Manager, *coreseg.Segment, *hw.CostMeter) {
	t.Helper()
	mem := hw.NewMemory(8)
	meter := &hw.CostMeter{}
	cm, err := coreseg.NewManager(mem, 4, meter)
	if err != nil {
		t.Fatal(err)
	}
	states, err := cm.Allocate("vp-states", n*StateWords)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(n, states, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, states, meter
}

func TestFixedNumber(t *testing.T) {
	m, _, _ := newManager(t, 4)
	if m.N() != 4 {
		t.Errorf("N = %d", m.N())
	}
	if _, err := NewManager(0, nil, nil, nil); err == nil {
		t.Error("zero virtual processors accepted")
	}
}

func TestStateSegmentTooSmall(t *testing.T) {
	mem := hw.NewMemory(8)
	cm, err := coreseg.NewManager(mem, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := cm.Allocate("tiny", 8)
	if err != nil {
		t.Fatal(err)
	}
	// One frame holds 1024 words = 128 vp states; ask for more.
	if _, err := NewManager(200, tiny, nil, nil); err == nil {
		t.Error("undersized state segment accepted")
	}
}

func TestStatesLiveInCoreSegment(t *testing.T) {
	m, states, _ := newManager(t, 3)
	vp, err := m.BindKernel("page-frame-mgr")
	if err != nil {
		t.Fatal(err)
	}
	w, err := states.Read(vp.ID() * StateWords)
	if err != nil {
		t.Fatal(err)
	}
	if Binding(w) != KernelBound {
		t.Errorf("state word says binding %v, want kernel", Binding(w))
	}
	// A user binding is visible too.
	uvp, err := m.AcquireUser(77)
	if err != nil {
		t.Fatal(err)
	}
	w, err = states.Read(uvp.ID()*StateWords + 1)
	if err != nil {
		t.Fatal(err)
	}
	if w != 77 {
		t.Errorf("state word says user %d, want 77", w)
	}
}

func TestBindKernel(t *testing.T) {
	m, _, _ := newManager(t, 2)
	a, err := m.BindKernel("page-writer")
	if err != nil {
		t.Fatal(err)
	}
	if a.Binding() != KernelBound || a.module != "page-writer" {
		t.Errorf("vp = %v %q", a.Binding(), a.module)
	}
	if _, err := m.BindKernel("page-writer"); err == nil {
		t.Error("double binding of one module succeeded")
	}
	if _, err := m.BindKernel("core-reclaimer"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BindKernel("scheduler"); !errors.Is(err, ErrNoFreeVP) {
		t.Errorf("binding beyond fixed supply: %v, want ErrNoFreeVP", err)
	}
	if m.FreeVPs() != 0 {
		t.Errorf("FreeVPs = %d", m.FreeVPs())
	}
}

func TestEnqueueRunPending(t *testing.T) {
	m, _, meter := newManager(t, 2)
	if _, err := m.BindKernel("daemon"); err != nil {
		t.Fatal(err)
	}
	var order []int
	if err := m.Enqueue("daemon", func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Enqueue("daemon", func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	before := meter.Snapshot()
	ran := m.RunPending()
	if ran != 2 {
		t.Errorf("RunPending = %d", ran)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want FIFO", order)
	}
	if ran := m.RunPending(); ran != 0 {
		t.Errorf("RunPending after run = %d", ran)
	}
	if got := meter.Since(before); got < 2*hw.CycDispatch {
		t.Errorf("dispatch cost %d, want >= %d", got, 2*hw.CycDispatch)
	}
	if m.Dispatches() != 2 {
		t.Errorf("Dispatches = %d", m.Dispatches())
	}
	if err := m.Enqueue("nobody", func() {}); err == nil {
		t.Error("enqueue to unbound module succeeded")
	}
}

func TestWorkMayEnqueueMoreWork(t *testing.T) {
	m, _, _ := newManager(t, 1)
	if _, err := m.BindKernel("daemon"); err != nil {
		t.Fatal(err)
	}
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			if err := m.Enqueue("daemon", step); err != nil {
				t.Error(err)
			}
		}
	}
	if err := m.Enqueue("daemon", step); err != nil {
		t.Fatal(err)
	}
	if ran := m.RunPending(); ran != 5 {
		t.Errorf("RunPending = %d, want 5", ran)
	}
}

func TestUserMultiplexing(t *testing.T) {
	m, _, _ := newManager(t, 3)
	if _, err := m.BindKernel("daemon"); err != nil {
		t.Fatal(err)
	}
	a, err := m.AcquireUser(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AcquireUser(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.User() != 1 || b.User() != 2 {
		t.Errorf("users = %d, %d", a.User(), b.User())
	}
	if _, err := m.AcquireUser(3); !errors.Is(err, ErrNoFreeVP) {
		t.Errorf("acquire beyond supply: %v", err)
	}
	if err := m.ReleaseUser(a); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseUser(a); err == nil {
		t.Error("double release succeeded")
	}
	c, err := m.AcquireUser(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != a.ID() {
		t.Errorf("released vp %d not reused, got %d", a.ID(), c.ID())
	}
	kvp := m.vps[0]
	if kvp.Binding() == UserBound {
		t.Error("kernel vp was multiplexed to a user")
	}
}

func TestWaitNotify(t *testing.T) {
	m, _, _ := newManager(t, 1)
	var ec eventcount.Eventcount
	done := make(chan uint64, 1)
	go func() { done <- m.Wait(nil, &ec, 1) }()
	m.Notify(&ec, 0, 0)
	if v := <-done; v < 1 {
		t.Errorf("Wait returned %d", v)
	}
}

func TestWakeupWaitingPreventsLostNotification(t *testing.T) {
	// The race the hardware additions close: processor A takes a
	// locked-descriptor fault; before it reaches the wait
	// primitive, the fault servicer unlocks the page and notifies.
	// Without the switch A would wait forever (the eventcount has
	// already passed); with it, Wait returns immediately.
	m, _, _ := newManager(t, 1)
	mem := hw.NewMemory(2)
	proc := hw.NewProcessor(0, mem, nil)
	m.RegisterProcessor(proc)

	pt := hw.NewPageTable(1)
	if err := pt.Set(0, hw.PTW{Lock: true}); err != nil {
		t.Fatal(err)
	}
	dt := hw.NewDescriptorTable(4)
	if err := dt.Set(2, hw.SDW{Present: true, Table: pt, Access: hw.Read, MaxRing: hw.UserRing}); err != nil {
		t.Fatal(err)
	}
	proc.UserDT = dt
	proc.Ring = hw.UserRing

	// The fault loads the locked-descriptor-address register.
	_, err := proc.Read(2, 0)
	if f, ok := err.(*hw.Fault); !ok || f.Kind != hw.FaultLockedDescriptor {
		t.Fatalf("read: %v, want locked-descriptor fault", err)
	}

	var ec eventcount.Eventcount
	target := ec.Read() + 1
	// Notification arrives before the wait primitive is invoked.
	m.Notify(&ec, 2, 0)
	// Wait must not block: the wakeup-waiting switch is set.
	got := m.Wait(proc, &ec, target+1) // deliberately beyond the count
	if got != ec.Read() {
		t.Errorf("Wait returned %d", got)
	}
	if proc.ClearWakeupWaiting() {
		t.Error("switch still set after Wait consumed it")
	}
}

func TestNotifyMatchesDescriptorAddress(t *testing.T) {
	m, _, _ := newManager(t, 1)
	mem := hw.NewMemory(2)
	proc := hw.NewProcessor(0, mem, nil)
	m.RegisterProcessor(proc)
	// Register holds (0,0) by default; a notify for a different
	// descriptor must not set the switch.
	var ec eventcount.Eventcount
	m.Notify(&ec, 9, 9)
	if proc.ClearWakeupWaiting() {
		t.Error("switch set by unrelated notification")
	}
}

func TestBindingString(t *testing.T) {
	for _, b := range []Binding{Free, KernelBound, UserBound, Binding(9)} {
		if b.String() == "" {
			t.Errorf("Binding(%d) has empty name", int(b))
		}
	}
}
