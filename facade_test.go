package multics

import "testing"

// The end-to-end sanity check the paper's plan aims at: the public
// facade boots both systems and the kernel's certification order is
// printable.
func TestFacade(t *testing.T) {
	k, err := Boot(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(k.CertificationOrder()) == 0 {
		t.Error("no certification order")
	}
	s, err := BootBaseline(DefaultBaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("nil baseline")
	}
	if SizeTable().Final != 26000 {
		t.Error("size table drifted")
	}
	if len(KernelGraph().Cycles()) != 0 {
		t.Error("kernel graph has loops")
	}
	if len(ActualGraph().Cycles()) == 0 {
		t.Error("1974 graph reported loop-free")
	}
	if len(Owner("a.b")) == 0 || len(Public(Read)) == 0 {
		t.Error("ACL helpers broken")
	}
}
