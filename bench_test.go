// Benchmarks regenerating every quantitative artifact of the paper's
// evaluation. Each benchmark reports simulated machine cycles per
// operation ("simcycles/op") alongside wall time; the paper's claims
// are about the simulated cycles, which are deterministic.
//
// Index (see DESIGN.md and EXPERIMENTS.md):
//
//	T1  BenchmarkSizeTable               — the kernel-size accounting
//	F2-4 BenchmarkDependencyGraphs       — structure build + verify
//	P1  BenchmarkLinker/*                — linker in kernel vs user ring
//	P2  BenchmarkPathResolve/*           — name manager in vs out
//	P3  BenchmarkLogin/*                 — monolithic vs split answering service
//	P4  BenchmarkMemoryManagerLang/*     — assembly vs PL/I memory manager
//	P5  BenchmarkPageFault/*             — baseline vs kernel fault path
//	P6  BenchmarkQuotaGrowth/*           — static cell vs dynamic walk (depth sweep)
//	P7  BenchmarkNetmux/*                — per-network vs generic kernel
//	P8  BenchmarkScheduler/*             — one-level vs two-level
//	C3  BenchmarkFullPackRelocation      — upward-signalled relocation
//	C4  BenchmarkConcurrentPageFaults    — descriptor-lock service, 2 CPUs
//	—   BenchmarkEventcount              — the synchronization substrate
package multics

import (
	"fmt"
	"testing"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/baseline"
	"multics/internal/census"
	"multics/internal/directory"
	"multics/internal/eventcount"
	"multics/internal/hw"
	"multics/internal/linker"
	"multics/internal/netmux"
	"multics/internal/trace"
	"multics/internal/uproc"
)

// reportCycles attaches the simulated-cycle metric.
func reportCycles(b *testing.B, meter *hw.CostMeter) {
	b.ReportMetric(float64(meter.Cycles())/float64(b.N), "simcycles/op")
}

// reportAttribution attaches one metric per module that consumed
// cycles during the timed section, computed from the trace meters as
// the difference of two snapshots.
func reportAttribution(b *testing.B, after, before trace.Snapshot) {
	diff := after.Since(before)
	for name, st := range diff.Modules {
		if c := st.TotalCycles(); c > 0 {
			b.ReportMetric(float64(c)/float64(b.N), name+"-cyc/op")
		}
	}
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

// --- P1: the dynamic linker ---

func BenchmarkLinker(b *testing.B) {
	for _, mode := range []linker.Mode{linker.InKernel, linker.UserRing} {
		b.Run(mode.String(), func(b *testing.B) {
			k := bootKernel(b, nil)
			p, err := k.CreateProcess("alice.sys", Bottom)
			if err != nil {
				b.Fatal(err)
			}
			cpu := k.CPUs[0]
			k.Attach(cpu, p)
			if _, err := k.CreateDir(cpu, p, nil, "lib", Public(Read|Write), Bottom); err != nil {
				b.Fatal(err)
			}
			// A pool of library entry points to snap.
			const pool = 64
			for i := 0; i < pool; i++ {
				if _, err := k.CreateFile(cpu, p, []string{"lib"}, fmt.Sprintf("sym%d_", i), Public(Read|Execute), Bottom); err != nil {
					b.Fatal(err)
				}
			}
			l := linker.New(mode, k.Meter, func(symbol string) (linker.Target, error) {
				segno, err := k.OpenPath(cpu, p, []string{"lib", symbol})
				if err != nil {
					return linker.Target{}, err
				}
				return linker.Target{Segno: segno, Offset: 0}, nil
			})
			b.ResetTimer()
			k.Meter.Reset()
			for i := 0; i < b.N; i++ {
				// Fresh linkage section each round: every
				// reference is a snap, as in program start-up.
				lk := linker.NewLinkage()
				if _, err := l.Reference(cpu, lk, fmt.Sprintf("sym%d_", i%pool)); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, k.Meter)
		})
	}
}

// --- P2: the name manager ---

func BenchmarkPathResolve(b *testing.B) {
	for _, depth := range []int{2, 4, 8} {
		k := bootKernel(b, nil)
		p, err := k.CreateProcess("alice.sys", Bottom)
		if err != nil {
			b.Fatal(err)
		}
		cpu := k.CPUs[0]
		k.Attach(cpu, p)
		var path []string
		for i := 0; i < depth-1; i++ {
			name := fmt.Sprintf("d%d", i)
			if _, err := k.CreateDir(cpu, p, path, name, Public(Read|Write), Bottom); err != nil {
				b.Fatal(err)
			}
			path = append(path, name)
		}
		if _, err := k.CreateFile(cpu, p, path, "leaf", Public(Read), Bottom); err != nil {
			b.Fatal(err)
		}
		full := append(append([]string{}, path...), "leaf")
		b.Run(fmt.Sprintf("user-ring-walk/depth=%d", depth), func(b *testing.B) {
			k.Meter.Reset()
			for i := 0; i < b.N; i++ {
				if _, err := k.WalkPath(cpu, p, full); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, k.Meter)
		})
		b.Run(fmt.Sprintf("in-kernel/depth=%d", depth), func(b *testing.B) {
			k.Meter.Reset()
			for i := 0; i < b.N; i++ {
				if _, err := k.ResolveKernel(cpu, p, full); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, k.Meter)
		})
	}
}

// --- P3: the answering service ---

func BenchmarkLogin(b *testing.B) {
	for _, mode := range []answering.Mode{answering.Monolithic, answering.Split} {
		b.Run(mode.String(), func(b *testing.B) {
			meter := &hw.CostMeter{}
			created := 0
			svc := answering.New(mode, meter, func(principal string, label aim.Label) (any, error) {
				created++
				return created, nil
			})
			if err := svc.Register("alice.sys", "hunter2", aim.Top); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			meter.Reset()
			for i := 0; i < b.N; i++ {
				sess, err := svc.Login("alice.sys", "hunter2", Bottom)
				if err != nil {
					b.Fatal(err)
				}
				if err := svc.Logout(sess, 1); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, meter)
		})
	}
}

// --- P4: assembly vs PL/I memory manager ---

func BenchmarkMemoryManagerLang(b *testing.B) {
	for _, lang := range []struct {
		name string
		l    hw.Language
	}{{"asm", hw.ASM}, {"pli", hw.PLI}} {
		b.Run(lang.name, func(b *testing.B) {
			k := bootKernel(b, func(c *Config) { c.MemFrames = 24; c.WiredFrames = 8 })
			k.Frames.Lang = lang.l
			cpu, p, segno := kernelHotSegment(b, k, 32)
			b.ResetTimer()
			k.Meter.Reset()
			for i := 0; i < b.N; i++ {
				if _, err := k.Read(cpu, p, segno, (i%32)*hw.PageWords); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, k.Meter)
		})
	}
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

// --- P5: the page-fault path, baseline vs kernel ---

func BenchmarkPageFault(b *testing.B) {
	// Working set of 32 pages against 16 pageable frames: every
	// round-robin touch faults and evicts.
	const pages, frames = 32, 16
	b.Run("baseline-1974", func(b *testing.B) { benchBaselineFaults(b, frames, pages) })
	b.Run("kernel-design", func(b *testing.B) {
		k := bootKernel(b, func(c *Config) {
			c.MemFrames = frames + 8
			c.WiredFrames = 8
			c.TraceEvents = 1 << 12
		})
		cpu, p, segno := kernelHotSegment(b, k, pages)
		b.ResetTimer()
		k.Meter.Reset()
		before := k.Trace.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := k.Read(cpu, p, segno, (i%pages)*hw.PageWords); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, k.Meter)
		reportAttribution(b, k.Trace.Snapshot(), before)
	})
}

// benchBaselineFaults times round-robin reads of a pages-page segment
// on the 1974 supervisor with frames pageable frames.
func benchBaselineFaults(b *testing.B, frames, pages int) {
	s := bootBase(b, func(c *BaselineConfig) { c.MemFrames = frames + 8; c.WiredFrames = 8 })
	if err := s.Create("a.x", "hot", false); err != nil {
		b.Fatal(err)
	}
	p := s.CreateProcess("a.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "hot")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := s.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	s.Meter.Reset()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(cpu, p, segno, (i%pages)*hw.PageWords); err != nil {
			b.Fatal(err)
		}
	}
	reportCycles(b, s.Meter)
}

// --- P6: quota, static cell vs dynamic upward walk ---

func BenchmarkQuotaGrowth(b *testing.B) {
	for _, depth := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("kernel-static-cell/depth=%d", depth), func(b *testing.B) {
			benchKernelGrowth(b, depth)
		})
		b.Run(fmt.Sprintf("baseline-dynamic-walk/depth=%d", depth), func(b *testing.B) {
			benchBaselineGrowth(b, depth, 0)
		})
	}
}

// benchKernelGrowth times quota-charged growth of a file at the bottom
// of a depth-deep directory tree. Each iteration grows a fresh page
// (the charged path), truncating the segment empty when the
// architectural cycle wraps.
func benchKernelGrowth(b *testing.B, depth int) {
	k := bootKernel(b, nil)
	p, err := k.CreateProcess("a.x", Bottom)
	if err != nil {
		b.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	var path []string
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("d%d", i)
		if _, err := k.CreateDir(cpu, p, path, name, Public(Read|Write), Bottom); err != nil {
			b.Fatal(err)
		}
		path = append(path, name)
	}
	if _, err := k.CreateFile(cpu, p, path, "f", nil, Bottom); err != nil {
		b.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, append(append([]string{}, path...), "f"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	k.Meter.Reset()
	for i := 0; i < b.N; i++ {
		page := i % 60
		if i > 0 && page == 0 {
			b.StopTimer()
			if err := k.Truncate(cpu, p, segno, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := k.Write(cpu, p, segno, page*hw.PageWords, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportCycles(b, k.Meter)
}

// benchBaselineGrowth is benchKernelGrowth on the 1974 supervisor,
// whose charge walks up to the nearest quota directory. With
// quotaEvery > 0, every quotaEvery-th level from the top is one.
func benchBaselineGrowth(b *testing.B, depth, quotaEvery int) {
	s := bootBase(b, nil)
	path := ""
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("d%d", i)
		if path == "" {
			path = name
		} else {
			path += ">" + name
		}
		if err := s.Create("a.x", path, true); err != nil {
			b.Fatal(err)
		}
		if quotaEvery > 0 && i%quotaEvery == 0 {
			if err := s.SetQuota("a.x", path, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Create("a.x", path+">f", false); err != nil {
		b.Fatal(err)
	}
	p := s.CreateProcess("a.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, path+">f")
	if err != nil {
		b.Fatal(err)
	}
	uid, err := s.UIDOf("a.x", path+">f")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Meter.Reset()
	for i := 0; i < b.N; i++ {
		page := i % 60
		if i > 0 && page == 0 {
			b.StopTimer()
			if err := s.Truncate(uid, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := s.Write(cpu, p, segno, page*hw.PageWords, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportCycles(b, s.Meter)
}

// --- P7: network multiplexing ---

func BenchmarkNetmux(b *testing.B) {
	for _, mode := range []netmux.Mode{netmux.PerNetworkKernel, netmux.GenericKernel} {
		b.Run(mode.String(), func(b *testing.B) {
			meter := &hw.CostMeter{}
			m := netmux.New(mode, meter)
			if err := m.Attach(netmux.Arpanet{Links: 4}); err != nil {
				b.Fatal(err)
			}
			cpu := hw.NewProcessor(0, hw.NewMemory(1), meter)
			cpu.Ring = hw.UserRing
			frame := netmux.Frame{Channel: 1, Payload: []hw.Word{0, 2, 4, 6}}
			b.ResetTimer()
			meter.Reset()
			for i := 0; i < b.N; i++ {
				if err := m.Deliver(cpu, "arpanet", frame); err != nil {
					b.Fatal(err)
				}
				if _, ok := m.Receive("arpanet", 1); !ok {
					b.Fatal("no delivery")
				}
			}
			reportCycles(b, meter)
		})
	}
}

// --- P8: one-level vs two-level scheduler ---

func BenchmarkScheduler(b *testing.B) {
	const nprocs = 4
	b.Run("one-level-1974", func(b *testing.B) {
		s := bootBase(b, nil)
		for i := 0; i < nprocs; i++ {
			s.CreateProcess("u.x")
		}
		b.ResetTimer()
		s.Meter.Reset()
		for i := 0; i < b.N; i++ {
			if _, err := s.RunQuantum(1, func(*baseline.Process) {}); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, s.Meter)
	})
	b.Run("two-level-kernel", func(b *testing.B) {
		k := bootKernel(b, func(c *Config) { c.TraceEvents = 1 << 12 })
		for i := 0; i < nprocs; i++ {
			if _, err := k.CreateProcess("u.x", Bottom); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		k.Meter.Reset()
		before := k.Trace.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := k.Procs.RunQuantum(1, func(*uproc.Process) {}); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, k.Meter)
		reportAttribution(b, k.Trace.Snapshot(), before)
	})
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
