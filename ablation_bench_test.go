package multics

// Ablation benchmarks for the design choices the paper weighs:
//
//   - the multi-process memory manager (Huber's daemons) on and off,
//     isolating the "small but unavoidable" IPC cost;
//   - memory pressure sweep: the paper predicts the redesign's cost
//     is "not significant unless the system were cramped for memory
//     and thrashing" — the gap should widen as memory shrinks;
//   - wired-memory fraction: core segments trade pageable frames for
//     loop-freedom;
//   - quota-directory density: how deep trees behave when quota
//     directories are sprinkled through them (the baseline's walk
//     shortens; the kernel stays flat).

import (
	"fmt"
	"testing"

	"multics/internal/hw"
)

func BenchmarkAblationDaemons(b *testing.B) {
	for _, daemons := range []bool{false, true} {
		name := "inline-writeback"
		if daemons {
			name = "page-writer-daemon"
		}
		b.Run(name, func(b *testing.B) {
			k := bootKernel(b, func(c *Config) {
				c.MemFrames = 24
				c.WiredFrames = 8
				c.Daemons = daemons
			})
			cpu, p, segno := kernelHotSegment(b, k, 32)
			b.ResetTimer()
			k.Meter.Reset()
			for i := 0; i < b.N; i++ {
				if err := k.Write(cpu, p, segno, (i%32)*hw.PageWords, hw.Word(i)); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, k.Meter)
		})
	}
}

func BenchmarkAblationMemoryPressure(b *testing.B) {
	// Fixed 32-page working set; pageable memory sweeps from
	// comfortable to cramped.
	const pages = 32
	for _, frames := range []int{48, 32, 16, 8} {
		b.Run(fmt.Sprintf("kernel/frames=%d", frames), func(b *testing.B) {
			k := bootKernel(b, func(c *Config) { c.MemFrames = frames + 8; c.WiredFrames = 8 })
			cpu, p, segno := kernelHotSegment(b, k, pages)
			b.ResetTimer()
			k.Meter.Reset()
			for i := 0; i < b.N; i++ {
				if _, err := k.Read(cpu, p, segno, (i%pages)*hw.PageWords); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, k.Meter)
		})
		b.Run(fmt.Sprintf("baseline/frames=%d", frames), func(b *testing.B) {
			benchBaselineFaults(b, frames, pages)
		})
	}
}

func BenchmarkAblationQuotaDirDensity(b *testing.B) {
	// Depth-12 tree; a quota directory every k levels. The
	// baseline's upward walk shortens as density rises; the kernel
	// is flat regardless.
	const depth = 12
	for _, every := range []int{12, 4, 1} {
		b.Run(fmt.Sprintf("baseline/quota-every=%d", every), func(b *testing.B) {
			// Quota directories at the top of each stride, so the
			// nearest superior sits every/2 levels above the leaf on
			// average: density controls walk length.
			benchBaselineGrowth(b, depth, every)
		})
	}
	b.Run("kernel/any-density", func(b *testing.B) { benchKernelGrowth(b, depth) })
}

func BenchmarkAblationWiredFraction(b *testing.B) {
	// More wired memory means fewer pageable frames for the same
	// machine: the cost of the core-segment discipline under load.
	for _, wired := range []int{6, 12, 24} {
		b.Run(fmt.Sprintf("wired=%d-of-48", wired), func(b *testing.B) {
			k := bootKernel(b, func(c *Config) { c.MemFrames = 48; c.WiredFrames = wired })
			cpu, p, segno := kernelHotSegment(b, k, 40)
			b.ResetTimer()
			k.Meter.Reset()
			for i := 0; i < b.N; i++ {
				if _, err := k.Read(cpu, p, segno, (i%40)*hw.PageWords); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, k.Meter)
		})
	}
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
