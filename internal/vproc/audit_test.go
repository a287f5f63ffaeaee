package vproc

import "testing"

func TestAuditCleanThenCorrupt(t *testing.T) {
	m, states, _ := newManager(t, 3)
	if _, err := m.BindKernel("daemon"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquireUser(42); err != nil {
		t.Fatal(err)
	}
	if bad := m.Audit(); len(bad) != 0 {
		t.Fatalf("clean manager audits dirty: %v", bad)
	}
	// Corrupt the state block in the core segment.
	if err := states.Write(0, 99); err != nil {
		t.Fatal(err)
	}
	if bad := m.Audit(); len(bad) == 0 {
		t.Error("audit missed a corrupted state block")
	}
	// Corrupt the module index: point it at a free vp.
	m2, _, _ := newManager(t, 2)
	if _, err := m2.BindKernel("d2"); err != nil {
		t.Fatal(err)
	}
	m2.mu.Lock()
	free := m2.vps[1]
	m2.byMod["d2"] = free
	m2.mu.Unlock()
	if bad := m2.Audit(); len(bad) == 0 {
		t.Error("audit missed a module indexed to an unbound vp")
	}
	// Corrupt a binding without the index.
	m3, _, _ := newManager(t, 2)
	if _, err := m3.BindKernel("d3"); err != nil {
		t.Fatal(err)
	}
	m3.mu.Lock()
	delete(m3.byMod, "d3")
	m3.mu.Unlock()
	if bad := m3.Audit(); len(bad) == 0 {
		t.Error("audit missed a bound vp missing from the index")
	}
}
