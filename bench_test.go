// Benchmarks of the artifacts kernelbench does not compare. Each
// kernel benchmark reports simulated machine cycles per operation
// ("simcycles/op") alongside wall time; the paper's claims are about
// the simulated cycles, which are deterministic. The performance
// comparisons P1-P8 are gated rows of cmd/kernelbench, not benchmarks.
//
// Index (see DESIGN.md and EXPERIMENTS.md):
//
//	T1  BenchmarkSizeTable               — the kernel-size accounting
//	F2-4 BenchmarkDependencyGraphs       — structure build + verify
//	C2  BenchmarkSearchPrimitive         — real vs mythical directory probe
//	C3  BenchmarkFullPackRelocation      — upward-signalled relocation
//	C4  BenchmarkConcurrentPageFaults    — descriptor-lock service, 2 CPUs
//	—   BenchmarkEventcount              — the synchronization substrate
package multics

import (
	"testing"

	"multics/internal/census"
	"multics/internal/directory"
	"multics/internal/eventcount"
	"multics/internal/hw"
	"multics/internal/uproc"
)

// reportCycles attaches the simulated-cycle metric.
func reportCycles(b *testing.B, meter *hw.CostMeter) {
	b.ReportMetric(float64(meter.Cycles())/float64(b.N), "simcycles/op")
}

// --- T1: the size table ---

func BenchmarkSizeTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := census.SizeTable()
		if t.TotalReduction != 28000 {
			b.Fatalf("table drifted: %d", t.TotalReduction)
		}
	}
}

// --- F2, F3, F4: the dependency structures ---

func BenchmarkDependencyGraphs(b *testing.B) {
	b.Run("fig2-superficial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := len(SuperficialGraph().Cycles()); got != 1 {
				b.Fatalf("cycles = %d", got)
			}
		}
	})
	b.Run("fig3-actual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if SuperficialGraph().LoopFree() || ActualGraph().LoopFree() {
				b.Fatal("1974 structure reported loop-free")
			}
		}
	})
	b.Run("fig4-kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := KernelGraph().Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- kernel/baseline fixtures ---

func bootKernel(tb testing.TB, mutate func(*Config)) *Kernel {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.RootQuota = 100000
	cfg.Packs = []PackSpec{{ID: "dska", Records: 8192}, {ID: "dskb", Records: 8192}}
	if mutate != nil {
		mutate(&cfg)
	}
	k, err := Boot(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

func bootBase(tb testing.TB, mutate func(*BaselineConfig)) *Baseline {
	tb.Helper()
	cfg := DefaultBaselineConfig()
	cfg.RootQuota = 100000
	for i := range cfg.Packs {
		cfg.Packs[i].Records = 8192
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := BootBaseline(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// kernelHotSegment prepares a dirty multi-page segment for fault
// storms.
func kernelHotSegment(b *testing.B, k *Kernel, pages int) (*hw.Processor, *uproc.Process, int) {
	b.Helper()
	p, err := k.CreateProcess("alice.sys", Bottom)
	if err != nil {
		b.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	if _, err := k.CreateFile(cpu, p, nil, "hot", nil, Bottom); err != nil {
		b.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"hot"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	return cpu, p, segno
}

// --- C3: full-pack relocation via upward signal ---

func BenchmarkFullPackRelocation(b *testing.B) {
	k := bootKernel(b, func(c *Config) {
		c.Packs = []PackSpec{{ID: "p0", Records: 24}, {ID: "p1", Records: 1 << 20}}
		c.MemFrames = 64
		c.WiredFrames = 8
	})
	p, err := k.CreateProcess("a.x", Bottom)
	if err != nil {
		b.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	b.ResetTimer()
	k.Meter.Reset()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh file on the small pack, grown until it overflows;
		// deleted afterwards so the fixture is reusable for any b.N.
		if _, err := k.CreateFile(cpu, p, nil, "victim", nil, Bottom); err != nil {
			b.Fatal(err)
		}
		segno, err := k.OpenPath(cpu, p, []string{"victim"})
		if err != nil {
			b.Fatal(err)
		}
		restores := k.Restores()
		b.StartTimer()
		for pg := 0; k.Restores() == restores; pg++ {
			if err := k.Write(cpu, p, segno, pg*hw.PageWords, hw.Word(pg+1)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := k.Dirs.Delete("a.x", Bottom, k.Dirs.RootID(), "victim"); err != nil {
			b.Fatal(err)
		}
		if err := k.KSM.Terminate(p.KST(), segno); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	reportCycles(b, k.Meter)
}

// --- C4: concurrent fault service on two CPUs ---

func BenchmarkConcurrentPageFaults(b *testing.B) {
	k := bootKernel(b, func(c *Config) { c.MemFrames = 24; c.WiredFrames = 8 })
	cpu0, p, segno := kernelHotSegment(b, k, 32)
	cpu1 := k.CPUs[1]
	k.Attach(cpu1, p)
	b.ResetTimer()
	k.Meter.Reset()
	for i := 0; i < b.N; i++ {
		off := (i % 32) * hw.PageWords
		if err := (uproc.GoroutineExecutor{}).Run([]*hw.Processor{cpu0, cpu1}, func(cpu *hw.Processor) {
			if _, err := k.Read(cpu, p, segno, off); err != nil {
				b.Error(err)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	reportCycles(b, k.Meter)
}

// --- the synchronization substrate ---

func BenchmarkEventcount(b *testing.B) {
	b.Run("advance", func(b *testing.B) {
		var ec eventcount.Eventcount
		for i := 0; i < b.N; i++ {
			ec.Advance()
		}
	})
	b.Run("read", func(b *testing.B) {
		var ec eventcount.Eventcount
		ec.Advance()
		for i := 0; i < b.N; i++ {
			_ = ec.Read()
		}
	})
	b.Run("ticket-mutex", func(b *testing.B) {
		var m eventcount.Mutex
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("await-satisfied", func(b *testing.B) {
		var ec eventcount.Eventcount
		ec.Advance()
		for i := 0; i < b.N; i++ {
			ec.Await(1)
		}
	})
}

// --- directory probe (Bratt primitive) ---

func BenchmarkSearchPrimitive(b *testing.B) {
	k := bootKernel(b, nil)
	p, err := k.CreateProcess("alice.sys", Bottom)
	if err != nil {
		b.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	if _, err := k.CreateDir(cpu, p, nil, "d", Public(Read|Write), Bottom); err != nil {
		b.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, p, []string{"d"}, "f", Public(Read), Bottom); err != nil {
		b.Fatal(err)
	}
	dirID, err := k.WalkPath(cpu, p, []string{"d"})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("real", func(b *testing.B) {
		k.Meter.Reset()
		for i := 0; i < b.N; i++ {
			if _, err := k.Search(cpu, p, dirID, "f"); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, k.Meter)
	})
	b.Run("mythical", func(b *testing.B) {
		k.Meter.Reset()
		for i := 0; i < b.N; i++ {
			if _, err := k.Search(cpu, p, directory.Identifier(0xdead), "f"); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, k.Meter)
	})
}
