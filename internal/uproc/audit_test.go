package uproc

import (
	"testing"

	"multics/internal/aim"
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
	// Corrupt: a ready process vanishes from the ready queue.
	rq.mu.Lock()
	rq.remove(b)
	rq.mu.Unlock()
	if bad := f.m.Audit(); len(bad) == 0 {
		t.Error("audit missed a ready process missing from the queue")
	}
}
