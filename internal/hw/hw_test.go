package hw

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestWordMasking(t *testing.T) {
	m := NewMemory(1)
	if err := m.Write(0, Word(1)<<40|7); err != nil {
		t.Fatal(err)
	}
	w, err := m.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if w != ((Word(1)<<40 | 7) & WordMask) {
		t.Errorf("stored word = %o, want 36-bit masked value", w)
	}
	if w>>36 != 0 {
		t.Errorf("stored word has bits above 36: %o", w)
	}
}

func TestPageArithmetic(t *testing.T) {
	cases := []struct{ off, page int }{
		{0, 0},
		{1023, 0},
		{1024, 1},
		{5000, 4},
	}
	for _, c := range cases {
		if got := PageOf(c.off); got != c.page {
			t.Errorf("PageOf(%d) = %d, want %d", c.off, got, c.page)
		}
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(2)
	if m.Frames() != 2 || m.Words() != 2*PageWords {
		t.Fatalf("Frames = %d, Words = %d", m.Frames(), m.Words())
	}
	if _, err := m.Read(-1); err == nil {
		t.Error("read of negative address succeeded")
	}
	if _, err := m.Read(2 * PageWords); err == nil {
		t.Error("read past end succeeded")
	}
	if err := m.Write(2*PageWords, 1); err == nil {
		t.Error("write past end succeeded")
	}
	if err := m.ZeroFrame(2); err == nil {
		t.Error("ZeroFrame past end succeeded")
	}
	if _, err := m.FrameIsZero(-1); err == nil {
		t.Error("FrameIsZero of negative frame succeeded")
	}
}

func TestFrameCopyAndZero(t *testing.T) {
	m := NewMemory(3)
	src := make([]Word, PageWords)
	for i := range src {
		src[i] = Word(i * 3)
	}
	if err := m.WriteFrame(1, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]Word, PageWords)
	if err := m.ReadFrame(1, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != src[i].Masked() {
			t.Fatalf("word %d = %d, want %d", i, dst[i], src[i])
		}
	}
	zero, err := m.FrameIsZero(1)
	if err != nil {
		t.Fatal(err)
	}
	if zero {
		t.Error("frame with data reported zero")
	}
	if err := m.ZeroFrame(1); err != nil {
		t.Fatal(err)
	}
	zero, err = m.FrameIsZero(1)
	if err != nil {
		t.Fatal(err)
	}
	if !zero {
		t.Error("zeroed frame not reported zero")
	}
	if err := m.ReadFrame(0, dst[:10]); err == nil {
		t.Error("short ReadFrame buffer accepted")
	}
	if err := m.WriteFrame(0, src[:10]); err == nil {
		t.Error("short WriteFrame buffer accepted")
	}
}

func TestBodyCycles(t *testing.T) {
	if got := BodyCycles(100, ASM); got != 100 {
		t.Errorf("ASM body = %d cycles, want 100", got)
	}
	got := BodyCycles(100, PLI)
	if got <= 200 {
		t.Errorf("PL/I body = %d cycles, want somewhat more than a factor of two over 100", got)
	}
	if got > 300 {
		t.Errorf("PL/I body = %d cycles, implausibly large", got)
	}
}

func TestCostMeter(t *testing.T) {
	var m CostMeter
	m.Add("a", 5)
	m.AddBody("a", 10, PLI)
	want := int64(5) + BodyCycles(10, PLI)
	if m.Cycles() != want {
		t.Errorf("Cycles = %d, want %d", m.Cycles(), want)
	}
	start := m.Snapshot()
	m.AddUnbound("b", 7)
	if got := m.Since(start); got != 7 {
		t.Errorf("Since = %d, want 7", got)
	}
	// A nil meter is usable (metering disabled).
	var nilMeter *CostMeter
	nilMeter.Add("a", 3)
	if nilMeter.Cycles() != 0 {
		t.Error("nil meter accrued cycles")
	}
}

func TestAccessModeString(t *testing.T) {
	cases := []struct {
		m    AccessMode
		want string
	}{
		{0, "---"},
		{Read, "r--"},
		{Read | Write, "rw-"},
		{Read | Execute, "r-e"},
		{Read | Write | Execute, "rwe"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.m, got, c.want)
		}
	}
	if !(Read | Write).Has(Read) {
		t.Error("rw does not Has(r)")
	}
	if (Read).Has(Write) {
		t.Error("r Has(w)")
	}
}

// newTestSpace builds a processor with one user segment (number 8) of
// npages pages, all present, and system segment max of 8.
func newTestSpace(t *testing.T, npages int, lockHW bool) (*Processor, *PageTable) {
	t.Helper()
	mem := NewMemory(npages + 4)
	pt := NewPageTable(npages)
	for i := 0; i < npages; i++ {
		if err := pt.Set(i, PTW{Present: true, Frame: i}); err != nil {
			t.Fatal(err)
		}
	}
	dt := NewDescriptorTable(16)
	if err := dt.Set(8, SDW{Present: true, Table: pt, Access: Read | Write, MaxRing: UserRing, WriteRing: UserRing}); err != nil {
		t.Fatal(err)
	}
	p := NewProcessor(0, mem, &CostMeter{})
	p.UserDT = dt
	p.SystemSegMax = 8
	p.SystemDT = NewDescriptorTable(8)
	p.Ring = UserRing
	p.DescriptorLockHW = lockHW
	return p, pt
}

func TestTranslateHit(t *testing.T) {
	p, _ := newTestSpace(t, 4, true)
	if err := p.Write(8, 2048+5, 42); err != nil {
		t.Fatal(err)
	}
	w, err := p.Read(8, 2048+5)
	if err != nil {
		t.Fatal(err)
	}
	if w != 42 {
		t.Errorf("read back %d, want 42", w)
	}
	if p.Meter.Cycles() == 0 {
		t.Error("translation accrued no cycles")
	}
}

func TestTranslateSetsUsedModified(t *testing.T) {
	p, pt := newTestSpace(t, 2, true)
	if _, err := p.Read(8, 0); err != nil {
		t.Fatal(err)
	}
	d, _ := pt.Get(0)
	if !d.Used || d.Modified {
		t.Errorf("after read: used=%v modified=%v, want used only", d.Used, d.Modified)
	}
	if err := p.Write(8, PageWords, 1); err != nil {
		t.Fatal(err)
	}
	d, _ = pt.Get(1)
	if !d.Used || !d.Modified {
		t.Errorf("after write: used=%v modified=%v, want both", d.Used, d.Modified)
	}
}

func TestMissingSegmentFault(t *testing.T) {
	p, _ := newTestSpace(t, 1, true)
	_, err := p.Read(9, 0)
	if !isFault(err, FaultMissingSegment) {
		t.Errorf("read of empty segment number: %v, want missing-segment", err)
	}
	_, err = p.Read(200, 0)
	if !isFault(err, FaultMissingSegment) {
		t.Errorf("read of out-of-range segment number: %v, want missing-segment", err)
	}
}

func TestBoundsFault(t *testing.T) {
	p, _ := newTestSpace(t, 2, true)
	_, err := p.Read(8, 2*PageWords)
	if !isFault(err, FaultBounds) {
		t.Errorf("read past bound: %v, want bounds fault", err)
	}
	_, err = p.Read(8, -1)
	if !isFault(err, FaultBounds) {
		t.Errorf("read of negative offset: %v, want bounds fault", err)
	}
}

func TestAccessFaults(t *testing.T) {
	p, pt := newTestSpace(t, 1, true)
	dt := p.UserDT
	// Read-only segment rejects writes.
	if err := dt.Set(9, SDW{Present: true, Table: pt, Access: Read, MaxRing: UserRing, WriteRing: UserRing}); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(9, 0, 1); !isFault(err, FaultAccess) {
		t.Errorf("write to read-only segment: %v, want access fault", err)
	}
	// Ring bracket: segment visible only to ring <= 1.
	if err := dt.Set(10, SDW{Present: true, Table: pt, Access: Read | Write, MaxRing: 1, WriteRing: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(10, 0); !isFault(err, FaultAccess) {
		t.Errorf("ring-4 read of ring-1 segment: %v, want access fault", err)
	}
	// Write ring lower than read ring: user can read, not write.
	if err := dt.Set(11, SDW{Present: true, Table: pt, Access: Read | Write, MaxRing: UserRing, WriteRing: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(11, 0); err != nil {
		t.Errorf("ring-4 read of write-ring-1 segment: %v", err)
	}
	if err := p.Write(11, 0, 1); !isFault(err, FaultAccess) {
		t.Errorf("ring-4 write of write-ring-1 segment: %v, want access fault", err)
	}
}

func TestSystemSegmentInvisibleToUserRing(t *testing.T) {
	p, _ := newTestSpace(t, 1, true)
	// Install a present system segment at number 3.
	sysPT := NewPageTable(1)
	if err := sysPT.Set(0, PTW{Present: true, Frame: 0}); err != nil {
		t.Fatal(err)
	}
	if err := p.SystemDT.Set(3, SDW{Present: true, Table: sysPT, Access: Read | Write, MaxRing: 0, WriteRing: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(3, 0); !isFault(err, FaultAccess) {
		t.Errorf("user-ring read of system segment number: %v, want access fault", err)
	}
	// The kernel (ring 0) reads it through the system table even
	// though the user table has nothing at number 3.
	err := p.GateCall(KernelRing, true, func() error {
		_, err := p.Read(3, 0)
		return err
	})
	if err != nil {
		t.Errorf("kernel read of system segment: %v", err)
	}
}

func TestMissingPageFaultSetsLockWithHW(t *testing.T) {
	p, pt := newTestSpace(t, 2, true)
	if err := pt.Set(1, PTW{}); err != nil { // page 1 not present
		t.Fatal(err)
	}
	_, err := p.Read(8, PageWords)
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultMissingPage {
		t.Fatalf("read of missing page: %v, want missing-page fault", err)
	}
	if !f.Locked {
		t.Error("descriptor-lock hardware did not report setting the lock")
	}
	d, _ := pt.Get(1)
	if !d.Lock {
		t.Error("lock bit not set in descriptor")
	}
	seg, page := p.LockedDescriptor()
	if seg != 8 || page != 1 {
		t.Errorf("locked-descriptor register = (%d,%d), want (8,1)", seg, page)
	}
	// A second reference now takes a locked-descriptor fault.
	_, err = p.Read(8, PageWords)
	if !isFault(err, FaultLockedDescriptor) {
		t.Errorf("second reference: %v, want locked-descriptor fault", err)
	}
	// After unlock and page arrival, the reference completes.
	if err := pt.Set(1, PTW{Present: true, Frame: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(8, PageWords); err != nil {
		t.Errorf("reference after service: %v", err)
	}
}

func TestMissingPageFaultWithoutLockHW(t *testing.T) {
	p, pt := newTestSpace(t, 1, false)
	if err := pt.Set(0, PTW{}); err != nil {
		t.Fatal(err)
	}
	_, err := p.Read(8, 0)
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultMissingPage {
		t.Fatalf("read of missing page: %v, want missing-page fault", err)
	}
	if f.Locked {
		t.Error("baseline hardware reported setting a lock bit")
	}
	d, _ := pt.Get(0)
	if d.Lock {
		t.Error("baseline hardware set the lock bit")
	}
}

func TestQuotaTrapFault(t *testing.T) {
	p, pt := newTestSpace(t, 2, true)
	if err := pt.Set(1, PTW{QuotaTrap: true}); err != nil {
		t.Fatal(err)
	}
	_, err := p.Read(8, PageWords+7)
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultQuota {
		t.Fatalf("reference to never-used page: %v, want quota fault", err)
	}
	if f.Seg != 8 || f.Page != 1 || f.Offset != PageWords+7 {
		t.Errorf("quota fault address = seg %d page %d off %d", f.Seg, f.Page, f.Offset)
	}
}

func TestOnlyOneProcessorWinsTheLock(t *testing.T) {
	// Two simulated processors fault on the same missing page
	// concurrently; the descriptor-lock hardware must let exactly
	// one of them service the fault, with no interpretive
	// retranslation required.
	mem := NewMemory(4)
	pt := NewPageTable(1)
	dt := NewDescriptorTable(16)
	if err := dt.Set(8, SDW{Present: true, Table: pt, Access: Read | Write, MaxRing: UserRing, WriteRing: UserRing}); err != nil {
		t.Fatal(err)
	}
	meter := &CostMeter{}
	for trial := 0; trial < 100; trial++ {
		if err := pt.Set(0, PTW{}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		winners := make([]bool, 2)
		for i := 0; i < 2; i++ {
			p := NewProcessor(i, mem, meter)
			p.UserDT = dt
			p.SystemSegMax = 0
			p.Ring = UserRing
			p.DescriptorLockHW = true
			wg.Add(1)
			go func(i int, p *Processor) {
				defer wg.Done()
				_, err := p.Read(8, 0)
				if f, ok := err.(*Fault); ok && f.Kind == FaultMissingPage && f.Locked {
					winners[i] = true
				}
			}(i, p)
		}
		wg.Wait()
		n := 0
		for _, w := range winners {
			if w {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("trial %d: %d processors won the descriptor lock, want exactly 1", trial, n)
		}
	}
}

func TestPageTableUnlock(t *testing.T) {
	pt := NewPageTable(1)
	if err := pt.Set(0, PTW{Lock: true}); err != nil {
		t.Fatal(err)
	}
	if err := pt.Unlock(0); err != nil {
		t.Fatal(err)
	}
	d, _ := pt.Get(0)
	if d.Lock {
		t.Error("descriptor still locked after Unlock")
	}
	if err := pt.Unlock(5); err == nil {
		t.Error("Unlock of out-of-range page succeeded")
	}
}

// A PTW packs its five bits behind the frame number: 16 bytes, against
// 24 with the bits split around the frame.
func TestPTWSize(t *testing.T) {
	if got := unsafe.Sizeof(PTW{}); got != 16 {
		t.Errorf("unsafe.Sizeof(PTW{}) = %d, want 16", got)
	}
}

// Reload builds a new incarnation in place: the given prefix, past
// after it, the generation moved on, and the old prefix's backing
// reused.
func TestPageTableReload(t *testing.T) {
	ptws := []PTW{{}, {QuotaTrap: true}, {Present: true, Frame: 7}}
	trap := PTW{QuotaTrap: true}
	pt := NewPageTable(5)
	for i := 0; i < 5; i++ {
		if err := pt.Set(i, PTW{Present: true, Frame: 40 + i, Used: true}); err != nil {
			t.Fatal(err)
		}
	}
	gen := pt.Gen()
	desc := func(p int) PTW { return ptws[p] }
	if allocs := testing.AllocsPerRun(10, func() { pt.Reload(len(ptws), desc, trap) }); allocs != 0 {
		t.Errorf("Reload allocated %.0f times into a table that held 5 descriptors", allocs)
	}
	if pt.Gen() <= gen {
		t.Errorf("generation %d after Reload, was %d", pt.Gen(), gen)
	}
	if pt.Len() != 5 {
		t.Fatalf("Len %d, want 5", pt.Len())
	}
	want := append(append([]PTW(nil), ptws...), trap, trap)
	for i, w := range want {
		if got, _ := pt.Get(i); got != w {
			t.Errorf("descriptor %d = %+v, want %+v", i, got, w)
		}
	}
	if _, err := pt.Get(5); err == nil {
		t.Error("Get past the logical length succeeded")
	}
}

func TestPageTableResetFrom(t *testing.T) {
	pt := NewPageTable(4)
	for i := 0; i < 4; i++ {
		if err := pt.Set(i, PTW{Present: true, Frame: i, Used: true}); err != nil {
			t.Fatal(err)
		}
	}
	trap := PTW{QuotaTrap: true}
	if err := pt.ResetFrom(2, trap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, _ := pt.Get(i)
		want := PTW{Present: true, Frame: i, Used: true}
		if i >= 2 {
			want = trap
		}
		if got != want {
			t.Errorf("descriptor %d = %+v, want %+v", i, got, want)
		}
	}
	if err := pt.ResetFrom(4, trap); err != nil {
		t.Errorf("ResetFrom at the end of the table: %v", err)
	}
	if err := pt.ResetFrom(-1, trap); err == nil {
		t.Error("ResetFrom(-1) succeeded")
	}
}

func TestGateCall(t *testing.T) {
	p, _ := newTestSpace(t, 1, true)
	if p.Ring != UserRing {
		t.Fatalf("start ring = %d", p.Ring)
	}
	before := p.Meter.Snapshot()
	var ringInside int
	if err := p.GateCall(KernelRing, true, func() error {
		ringInside = p.Ring
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ringInside != KernelRing {
		t.Errorf("ring inside gate = %d, want %d", ringInside, KernelRing)
	}
	if p.Ring != UserRing {
		t.Errorf("ring after return = %d, want %d", p.Ring, UserRing)
	}
	if got := p.Meter.Since(before); got < 2*CycRingCross {
		t.Errorf("gate call accrued %d cycles, want >= %d", got, 2*CycRingCross)
	}
	// Inward call without a gate faults.
	err := p.GateCall(KernelRing, false, func() error { return nil })
	if !isFault(err, FaultGate) {
		t.Errorf("inward non-gate call: %v, want gate fault", err)
	}
	// Same-ring call needs no gate and accrues no crossing cost.
	before = p.Meter.Snapshot()
	if err := p.GateCall(UserRing, false, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := p.Meter.Since(before); got != 0 {
		t.Errorf("same-ring call accrued %d cycles", got)
	}
	if err := p.GateCall(NRings, true, func() error { return nil }); err == nil {
		t.Error("call to out-of-range ring succeeded")
	}
}

func TestWakeupWaitingSwitch(t *testing.T) {
	p, _ := newTestSpace(t, 1, true)
	if p.ClearWakeupWaiting() {
		t.Error("switch initially set")
	}
	p.SetWakeupWaiting()
	if !p.ClearWakeupWaiting() {
		t.Error("ClearWakeupWaiting did not report the switch SetWakeupWaiting set")
	}
	if p.ClearWakeupWaiting() {
		t.Error("second ClearWakeupWaiting reported set")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Kind: FaultQuota, Seg: 12, Offset: 1030, Page: 1, Ring: 4}
	msg := f.Error()
	if msg == "" {
		t.Fatal("empty fault message")
	}
	for _, want := range []string{"quota", "12", "1030"} {
		if !contains(msg, want) {
			t.Errorf("fault message %q missing %q", msg, want)
		}
	}
	if FaultKind(99).String() == "" {
		t.Error("unknown fault kind has empty name")
	}
	// Err boxes a copy: the caller's error does not change with the
	// fault it was made from.
	bounds := Fault{Kind: FaultBounds, Seg: 3}
	err := bounds.Err()
	bounds.Seg = 4
	if got, ok := err.(*Fault); !ok || got.Kind != FaultBounds || got.Seg != 3 {
		t.Errorf("Err boxed %v, want a copy of the bounds fault at segment 3", err)
	}
}

// Reference hands a fault back by value: taking one allocates nothing.
func TestReferenceFaultsWithoutAllocating(t *testing.T) {
	p := NewProcessor(0, NewMemory(4), &CostMeter{})
	allocs := testing.AllocsPerRun(100, func() {
		_, f, faulted, err := p.Reference(5, 7, false, 0)
		if err != nil || !faulted || f.Kind != FaultMissingSegment || f.Seg != 5 || f.Offset != 7 {
			t.Fatalf("Reference = %+v, faulted %v, err %v; want a missing-segment fault at 5|7", f, faulted, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a faulting reference allocated %.1f times, want 0", allocs)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: for any offset, page PageOf(off) starts at or below off
// and less than one page before it.
func TestPageOfProperty(t *testing.T) {
	f := func(off uint16) bool {
		o := int(off)
		p := PageOf(o)
		return p*PageWords <= o && o-p*PageWords < PageWords
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: masking is idempotent and stays within 36 bits.
func TestWordMaskProperty(t *testing.T) {
	f := func(v uint64) bool {
		w := Word(v).Masked()
		return w == w.Masked() && w>>36 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDescriptorTableHousekeeping(t *testing.T) {
	dt := NewDescriptorTable(4)
	if dt.Len() != 4 {
		t.Errorf("Len = %d", dt.Len())
	}
	pt := NewPageTable(1)
	if err := dt.Set(2, SDW{Present: true, Table: pt, Access: Read, MaxRing: 0}); err != nil {
		t.Fatal(err)
	}
	if err := dt.Clear(2); err != nil {
		t.Fatal(err)
	}
	sdw, err := dt.Get(2)
	if err != nil || sdw.Present {
		t.Errorf("cleared descriptor = %+v, %v", sdw, err)
	}
	if _, err := dt.Get(9); err == nil {
		t.Error("Get out of range succeeded")
	}
	if err := dt.Set(-1, SDW{}); err == nil {
		t.Error("Set out of range succeeded")
	}
}

// isFault reports whether err is a *Fault of the given kind.
func isFault(err error, kind FaultKind) bool {
	f, ok := err.(*Fault)
	return ok && f.Kind == kind
}
