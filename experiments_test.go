package multics

import (
	"fmt"
	"testing"

	"multics/internal/baseline"
	"multics/internal/hw"
	"multics/internal/uproc"
)

// These tests pin the shape of every performance comparison in the
// paper's evaluation against the deterministic cycle meter, so a cost-
// model regression fails loudly rather than silently changing the
// story. The benchmarks in bench_test.go report the same quantities.

// P5: the redesigned memory manager's processor path is slightly
// slower than the baseline's (PL/I recode plus daemon IPC) — the
// paper's "negative, but not significant". End to end the comparison
// now inverts: the kernel's faults ride the per-pack elevator queue,
// whose distance-priced positioning (short or no seeks between the
// sequential records of a thrashing scan, sorted write-back batches)
// undercuts the baseline's full average seek per transfer by more
// than the recode costs. The test pins both halves: the kernel wins
// overall, and the win stays modest — a runaway cost-model change in
// either direction still fails loudly.
func TestShapePageFaultPath(t *testing.T) {
	const pages, frames = 32, 16
	baselineCost := func() int64 {
		s := bootBase(t, func(c *BaselineConfig) { c.MemFrames = frames + 8; c.WiredFrames = 8 })
		if err := s.Create("a.x", "hot", false); err != nil {
			t.Fatal(err)
		}
		p := s.CreateProcess("a.x")
		cpu := s.CPUs[0]
		s.Attach(cpu, p)
		segno, err := s.Open(p, "hot")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pages; i++ {
			if err := s.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		start := s.Meter.Snapshot()
		for i := 0; i < 200; i++ {
			if _, err := s.Read(cpu, p, segno, (i%pages)*hw.PageWords); err != nil {
				t.Fatal(err)
			}
		}
		return s.Meter.Since(start)
	}()
	kernelCost := func() int64 {
		// The associative memory is off: this experiment reproduces
		// the paper's 1974-vs-kernel fault-path comparison, and the
		// baseline models no translation cache either.
		k := bootKernel(t, func(c *Config) { c.MemFrames = frames + 8; c.WiredFrames = 8; c.AssocOff = true })
		k.Frames.FrameBatch = 1 // ungrouped write-back, as the 1976 system ran
		p, err := k.CreateProcess("a.x", Bottom)
		if err != nil {
			t.Fatal(err)
		}
		cpu := k.CPUs[0]
		k.Attach(cpu, p)
		if _, err := k.CreateFile(cpu, p, nil, "hot", nil, Bottom); err != nil {
			t.Fatal(err)
		}
		segno, err := k.OpenPath(cpu, p, []string{"hot"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pages; i++ {
			if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		start := k.Meter.Snapshot()
		for i := 0; i < 200; i++ {
			if _, err := k.Read(cpu, p, segno, (i%pages)*hw.PageWords); err != nil {
				t.Fatal(err)
			}
		}
		return k.Meter.Since(start)
	}()
	if kernelCost >= baselineCost {
		t.Errorf("kernel fault path %d cycles >= baseline %d; the elevator's positioning savings should outweigh the recode", kernelCost, baselineCost)
	}
	speedup := 100 * float64(baselineCost-kernelCost) / float64(baselineCost)
	if speedup > 40 {
		t.Errorf("kernel fault path %.1f%% cheaper; the device scheduling win should stay modest (<40%%)", speedup)
	}
}

// P6: quota charging is O(1) against the statically bound cell and
// O(depth) for the baseline's dynamic upward search.
func TestShapeQuotaCost(t *testing.T) {
	kernelCostAt := func(depth int) int64 {
		k := bootKernel(t, nil)
		p, err := k.CreateProcess("a.x", Bottom)
		if err != nil {
			t.Fatal(err)
		}
		cpu := k.CPUs[0]
		k.Attach(cpu, p)
		var path []string
		for i := 0; i < depth; i++ {
			name := fmt.Sprintf("d%d", i)
			if _, err := k.CreateDir(cpu, p, path, name, Public(Read|Write), Bottom); err != nil {
				t.Fatal(err)
			}
			path = append(path, name)
		}
		if _, err := k.CreateFile(cpu, p, path, "f", nil, Bottom); err != nil {
			t.Fatal(err)
		}
		segno, err := k.OpenPath(cpu, p, append(append([]string{}, path...), "f"))
		if err != nil {
			t.Fatal(err)
		}
		start := k.Meter.Snapshot()
		for i := 0; i < 50; i++ {
			if err := k.Write(cpu, p, segno, i*hw.PageWords, 1); err != nil {
				t.Fatal(err)
			}
		}
		return k.Meter.Since(start)
	}
	baselineCostAt := func(depth int) int64 {
		s := bootBase(t, nil)
		path := ""
		for i := 0; i < depth; i++ {
			name := fmt.Sprintf("d%d", i)
			if path == "" {
				path = name
			} else {
				path += ">" + name
			}
			if err := s.Create("a.x", path, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Create("a.x", path+">f", false); err != nil {
			t.Fatal(err)
		}
		p := s.CreateProcess("a.x")
		cpu := s.CPUs[0]
		s.Attach(cpu, p)
		segno, err := s.Open(p, path+">f")
		if err != nil {
			t.Fatal(err)
		}
		start := s.Meter.Snapshot()
		for i := 0; i < 50; i++ {
			if err := s.Write(cpu, p, segno, i*hw.PageWords, 1); err != nil {
				t.Fatal(err)
			}
		}
		return s.Meter.Since(start)
	}
	k1, k8 := kernelCostAt(1), kernelCostAt(8)
	b1, b8 := baselineCostAt(1), baselineCostAt(8)
	// Static cell: depth-independent (identical, not merely close).
	if k1 != k8 {
		t.Errorf("kernel growth cost varies with depth: %d at 1, %d at 8", k1, k8)
	}
	// Dynamic walk: grows with depth.
	if b8 <= b1 {
		t.Errorf("baseline growth cost did not grow with depth: %d at 1, %d at 8", b1, b8)
	}
	// Deep in the hierarchy, the redesign wins.
	if k8 >= b8 {
		t.Errorf("at depth 8, kernel %d >= baseline %d; the static binding should win", k8, b8)
	}
}

// P8: the two-level scheduler performs about the same as the
// one-level scheduler (the paper's expectation for the combined
// layers).
func TestShapeTwoLevelScheduler(t *testing.T) {
	oneLevel := func() int64 {
		s := bootBase(t, nil)
		for i := 0; i < 4; i++ {
			s.CreateProcess("u.x")
		}
		start := s.Meter.Snapshot()
		if _, err := s.RunQuantum(100, func(*baseline.Process) {}); err != nil {
			t.Fatal(err)
		}
		return s.Meter.Since(start)
	}()
	twoLevel := func() int64 {
		k := bootKernel(t, nil)
		for i := 0; i < 4; i++ {
			if _, err := k.CreateProcess("u.x", Bottom); err != nil {
				t.Fatal(err)
			}
		}
		start := k.Meter.Snapshot()
		if _, err := k.Procs.RunQuantum(100, func(*uproc.Process) {}); err != nil {
			t.Fatal(err)
		}
		return k.Meter.Since(start)
	}()
	diff := twoLevel - oneLevel
	if diff < 0 {
		diff = -diff
	}
	if 100*diff > 10*oneLevel {
		t.Errorf("scheduler costs diverge more than 10%%: one-level %d, two-level %d", oneLevel, twoLevel)
	}
}

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
	if !KernelGraph().LoopFree() {
		t.Error("kernel graph has loops")
	}
	if ActualGraph().LoopFree() {
		t.Error("1974 graph reported loop-free")
	}
	if len(Owner("a.b")) == 0 || len(Public(Read)) == 0 {
		t.Error("ACL helpers broken")
	}
}
