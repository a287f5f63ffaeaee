package linker

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"multics/internal/hw"
)

// stubResolver resolves symbols to deterministic targets, charging a
// fixed resolution cost like the real directory machinery would.
func stubResolver(meter *hw.CostMeter, fail map[string]bool) Resolver {
	next := 100
	targets := map[string]Target{}
	var mu sync.Mutex
	return func(symbol string) (Target, error) {
		meter.Add("directory-manager", 300) // search + initiate
		mu.Lock()
		defer mu.Unlock()
		if fail[symbol] {
			return Target{}, fmt.Errorf("%w: %s", ErrUnresolved, symbol)
		}
		t, ok := targets[symbol]
		if !ok {
			t = Target{Segno: next, Offset: len(symbol)}
			targets[symbol] = t
			next++
		}
		return t, nil
	}
}

func newCPU(meter *hw.CostMeter) *hw.Processor {
	cpu := hw.NewProcessor(0, hw.NewMemory(1), meter)
	cpu.Ring = hw.UserRing
	return cpu
}

func TestSnapOnceThenCached(t *testing.T) {
	meter := &hw.CostMeter{}
	l := New(InKernel, meter, stubResolver(meter, nil))
	lk := NewLinkage()
	cpu := newCPU(meter)

	t1, err := l.Reference(cpu, lk, "sqrt_")
	if err != nil {
		t.Fatal(err)
	}
	if lk.Snapped() != 1 || l.Faults() != 1 {
		t.Errorf("snapped=%d faults=%d", lk.Snapped(), l.Faults())
	}
	afterSnap := meter.Snapshot()
	t2, err := l.Reference(cpu, lk, "sqrt_")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Errorf("snapped target changed: %v vs %v", t1, t2)
	}
	if l.Faults() != 1 {
		t.Error("second reference faulted")
	}
	if got := meter.Since(afterSnap); got > 5 {
		t.Errorf("snapped reference cost %d cycles; should be an indirect word", got)
	}
}

func TestDistinctSymbolsDistinctTargets(t *testing.T) {
	meter := &hw.CostMeter{}
	l := New(InKernel, meter, stubResolver(meter, nil))
	lk := NewLinkage()
	a, err := l.Reference(nil, lk, "alpha_")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Reference(nil, lk, "beta_")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two symbols snapped to one target")
	}
	if lk.Snapped() != 2 {
		t.Errorf("Snapped = %d", lk.Snapped())
	}
}

func TestUnresolvedSymbolStaysUnsnapped(t *testing.T) {
	meter := &hw.CostMeter{}
	l := New(InKernel, meter, stubResolver(meter, map[string]bool{"ghost_": true}))
	lk := NewLinkage()
	if _, err := l.Reference(nil, lk, "ghost_"); !errors.Is(err, ErrUnresolved) {
		t.Fatalf("unresolved reference = %v", err)
	}
	if lk.Snapped() != 0 {
		t.Error("failed snap recorded as snapped")
	}
	// Each retry faults again.
	if _, err := l.Reference(nil, lk, "ghost_"); err == nil {
		t.Error("retry succeeded")
	}
	if l.Faults() != 2 {
		t.Errorf("Faults = %d", l.Faults())
	}
}

func TestUserRingLinkerIsSomewhatSlower(t *testing.T) {
	// P1's shape: the extracted linker runs slower per snap, the
	// causes (extra gate round trips) understood.
	run := func(mode Mode) int64 {
		meter := &hw.CostMeter{}
		l := New(mode, meter, stubResolver(meter, nil))
		lk := NewLinkage()
		cpu := newCPU(meter)
		for i := 0; i < 50; i++ {
			if _, err := l.Reference(cpu, lk, fmt.Sprintf("sym%d_", i)); err != nil {
				t.Fatal(err)
			}
		}
		return meter.Cycles()
	}
	inKernel := run(InKernel)
	userRing := run(UserRing)
	if userRing <= inKernel {
		t.Errorf("user-ring linker %d cycles <= in-kernel %d; paper reports it ran somewhat slower", userRing, inKernel)
	}
	if userRing > 2*inKernel {
		t.Errorf("user-ring linker %d vs %d: 'somewhat slower', not catastrophically", userRing, inKernel)
	}
}

func TestSnappedReferencesCostTheSameInBothModes(t *testing.T) {
	// Once snapped, the link is an indirect word; the extraction
	// penalty is per-snap, not per-reference.
	run := func(mode Mode) int64 {
		meter := &hw.CostMeter{}
		l := New(mode, meter, stubResolver(meter, nil))
		lk := NewLinkage()
		cpu := newCPU(meter)
		if _, err := l.Reference(cpu, lk, "hot_"); err != nil {
			t.Fatal(err)
		}
		start := meter.Snapshot()
		for i := 0; i < 1000; i++ {
			if _, err := l.Reference(cpu, lk, "hot_"); err != nil {
				t.Fatal(err)
			}
		}
		return meter.Since(start)
	}
	if a, b := run(InKernel), run(UserRing); a != b {
		t.Errorf("snapped reference cost differs: %d vs %d", a, b)
	}
}

func TestKernelLines(t *testing.T) {
	if KernelLines(InKernel) != 2000 {
		t.Errorf("InKernel lines = %d", KernelLines(InKernel))
	}
	if KernelLines(UserRing) != 0 {
		t.Errorf("UserRing lines = %d", KernelLines(UserRing))
	}
	if InKernel.String() == "" || UserRing.String() == "" {
		t.Error("mode names empty")
	}
}

func TestConcurrentSnaps(t *testing.T) {
	meter := &hw.CostMeter{}
	l := New(InKernel, meter, stubResolver(meter, nil))
	lk := NewLinkage()
	var wg sync.WaitGroup
	results := make([]Target, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tgt, err := l.Reference(nil, lk, "shared_")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = tgt
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if results[i] != results[0] {
			t.Fatalf("racy snap produced different targets: %v vs %v", results[i], results[0])
		}
	}
}
