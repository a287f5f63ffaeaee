package uproc

import (
	"slices"
	"strings"
	"testing"

	"multics/internal/aim"
	"multics/internal/hw"
)

func TestProcessAccessors(t *testing.T) {
	f := newFixture(t, 4)
	label := aim.Label{Level: aim.Secret}
	p, err := f.m.Create("alice.sys", label)
	if err != nil {
		t.Fatal(err)
	}
	if p.Principal() != "alice.sys" {
		t.Errorf("Principal = %q", p.Principal())
	}
	if p.Label() != label {
		t.Errorf("Label = %v", p.Label())
	}
	if p.DT() == nil || p.KST() == nil {
		t.Error("nil address space or KST")
	}
}

func TestAuditCleanThenCorrupt(t *testing.T) {
	f := newFixture(t, 4)
	a, err := f.m.Create("a.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Create("b.x", aim.Bottom); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.m.Dispatch(); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("clean manager audits dirty: %v", bad)
	}
	// Corrupt: a running process loses its virtual processor.
	a.pmu.Lock()
	vp := a.vp
	a.vp = nil
	a.pmu.Unlock()
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a running process with no virtual processor")
	}
	a.pmu.Lock()
	a.vp = vp
	a.pmu.Unlock()
	b, err := f.m.Lookup(2)
	if err != nil {
		t.Fatal(err)
	}
	rq := &f.m.ready
	// Corrupt: the queue's recorded size disagrees with its list.
	rq.mu.Lock()
	rq.size++
	rq.mu.Unlock()
	if bad := f.m.Audit(); len(bad) != 1 {
		t.Errorf("audit of a ready queue whose walk falls short of its size = %v, want one finding", bad)
	}
	rq.mu.Lock()
	rq.size--
	rq.mu.Unlock()
	// Corrupt: the table files a record under another process's pid.
	f.m.procsMu.Lock()
	f.m.procs[b.id] = a
	f.m.procsMu.Unlock()
	if bad := f.m.Audit(); !slices.ContainsFunc(bad, func(s string) bool { return strings.Contains(s, "holds the record of process") }) {
		t.Errorf("audit of a table entry naming another process = %v", bad)
	}
	f.m.procsMu.Lock()
	f.m.procs[b.id] = b
	f.m.procsMu.Unlock()
	// Corrupt: a ready process vanishes from the ready queue.
	rq.mu.Lock()
	rq.remove(b)
	rq.mu.Unlock()
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a ready process missing from the queue")
	}
}

// A destroyed process's record goes on the free list and the next
// Create takes it, descriptor table and KST included; Audit finds a
// free record still reachable from the process table, the ready
// queue, the list of live KSTs or a connection list.
func TestAuditFindsFreeRecordReachable(t *testing.T) {
	f := newFixture(t, 4)
	a, err := f.m.Create("a.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	dt, kst := a.DT(), a.KST()
	if err := f.m.Destroy(a); err != nil {
		t.Fatal(err)
	}
	b, err := f.m.Create("b.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if b != a || b.DT() != dt || b.KST() != kst || b.ID() == 1 {
		t.Fatalf("Create did not reuse the destroyed record (pid %d)", b.ID())
	}
	if !f.m.ksm.Listed(kst) {
		t.Fatal("reused record's KST is not listed")
	}
	c, err := f.m.Create("c.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.m.Destroy(c); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("clean manager audits dirty: %v", bad)
	}
	// Corrupt: the free record is still in the process table.
	f.m.procsMu.Lock()
	f.m.procs[c.id] = c
	f.m.procsMu.Unlock()
	if bad := f.m.Audit(); !slices.ContainsFunc(bad, func(s string) bool { return strings.Contains(s, "free process record") }) {
		t.Errorf("audit of a free record in the process table = %v", bad)
	}
	f.m.procsMu.Lock()
	delete(f.m.procs, c.id)
	f.m.procsMu.Unlock()
	// Corrupt: the free record is still on the ready queue.
	rq := &f.m.ready
	rq.mu.Lock()
	rq.push(c, false)
	rq.mu.Unlock()
	if bad := f.m.Audit(); !slices.ContainsFunc(bad, func(s string) bool { return strings.Contains(s, "free process record") }) {
		t.Errorf("audit of a free record on the ready queue = %v", bad)
	}
	rq.mu.Lock()
	rq.remove(c)
	rq.mu.Unlock()
	// Corrupt: the free record's KST is listed again.
	if err := f.m.ksm.ReuseKST(c.kst, f.m.KSTBase, f.m.KSTSize); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); !slices.ContainsFunc(bad, func(s string) bool { return strings.Contains(s, "KST on the live list") }) {
		t.Errorf("audit of a free record's listed KST = %v", bad)
	}
	f.m.ksm.DropKST(c.kst)
	// Corrupt: the free record's address space is connected to a live
	// segment. A reset leaves the connection inert.
	if err := f.m.segs.Connect(b.StateSegment(), c.dt, f.m.KSTBase, hw.Read, hw.NRings-1, hw.NRings-1); err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); !slices.ContainsFunc(bad, func(s string) bool { return strings.Contains(s, "connection list") }) {
		t.Errorf("audit of a free record's connected address space = %v", bad)
	}
	c.dt.Reset()
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after the free record's table was reset = %v", bad)
	}
}
