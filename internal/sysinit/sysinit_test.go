package sysinit

import "testing"

func TestOldPlanAllInKernel(t *testing.T) {
	p := OldPlan()
	for _, s := range p.Steps {
		if s.Env != Kernel {
			t.Errorf("old plan step %s runs in %v", s.Name, s.Env)
		}
	}
	if got := p.KernelLines(); got != 2700 {
		t.Errorf("old plan kernel lines = %d", got)
	}
}

func TestNewPlanMovesTwoThousandLines(t *testing.T) {
	old := OldPlan().KernelLines()
	new_ := NewPlan().KernelLines()
	if old-new_ != 2000 {
		t.Errorf("reduction = %d, want the paper's estimated 2000", old-new_)
	}
}

func TestTwoPhaseBoot(t *testing.T) {
	p := NewPlan()
	im, err := p.RunUserPhase()
	if err != nil {
		t.Fatal(err)
	}
	if len(im.entries) == 0 {
		t.Fatal("user phase produced an empty image")
	}
	if err := p.RunKernelPhase(im); err != nil {
		t.Fatalf("kernel phase: %v", err)
	}
}

func TestKernelPhaseNeedsImage(t *testing.T) {
	p := NewPlan()
	if err := p.RunKernelPhase(nil); err == nil {
		t.Error("kernel phase without image succeeded")
	}
	// The old plan needs no prior incarnation: its kernel phase
	// runs against an empty (but valid) image because every step is
	// kernel-resident and self-contained... except steps that read
	// config, which the old plan computes in-kernel. Run the old
	// plan end to end the old way: user phase is empty, so feed the
	// kernel phase a full image from a new-style run.
	old := OldPlan()
	im, err := old.RunUserPhase()
	if err != nil {
		t.Fatal(err)
	}
	if len(im.entries) != 0 {
		t.Errorf("old plan's user phase did work: %d artifacts", len(im.entries))
	}
}

func TestTamperedImageRejected(t *testing.T) {
	p := NewPlan()
	im, err := p.RunUserPhase()
	if err != nil {
		t.Fatal(err)
	}
	im.sum ^= 1 // break the seal
	if err := p.RunKernelPhase(im); err == nil {
		t.Error("kernel booted from a tampered image")
	}
}

func TestImageStore(t *testing.T) {
	im := NewImage()
	im.Put("a", 7)
	im.Put("b", 9)
	if v, ok := im.Get("a"); !ok || v != 7 {
		t.Errorf("Get(a) = %d, %v", v, ok)
	}
	if _, ok := im.Get("zzz"); ok {
		t.Error("missing key found")
	}
	if err := im.Verify(); err != nil {
		t.Errorf("fresh image fails verification: %v", err)
	}
	if len(im.entries) != 2 {
		t.Errorf("Len = %d", len(im.entries))
	}
}

func TestEnvNames(t *testing.T) {
	if Kernel.String() == "" || UserProcess.String() == "" {
		t.Error("env names empty")
	}
}
