// Command kernelbench runs the performance comparisons of the paper's
// evaluation against the deterministic cycle meter and prints
// paper-claim versus measured-shape for each:
//
//	P1 linker in kernel vs user ring     (paper: somewhat slower out)
//	P2 name manager in vs out            (paper: somewhat faster out)
//	P3 answering service split           (paper: about 3% slower)
//	P4 memory manager asm vs PL/I        (paper: code twice as slow)
//	P5 page-fault path baseline vs new   (paper: negative, not significant)
//	P6 quota static cell vs dynamic walk (depth sweep)
//	P7 network kernel bulk per networks  (paper: linear vs nearly flat)
//	P8 scheduler one-level vs two-level  (paper: about the same)
//	P9 fault-storm cycle attribution     (the meters, per module)
//	P10 parallel speedup                 (1/2/4 processors, makespan)
//	P11 associative memory               (translation cache on/off)
//	P12 login storm                      (1k/10k users; O(1) dispatch)
//	P13 fault-service latency            (span p50/p99/max, 1/2/4 CPUs)
//	P15 disk pipeline fault storm        (1/2/4 CPUs x 1/2/4 packs; gated)
//	P16 connection storm                 (10k/100k/1M lines; O(1) cyc/conn)
//	A1 page-writer daemon off/on         (the daemon's IPC in isolation)
//	A2 memory pressure                   (48/32/16/8 pageable frames)
//	A3 quota-directory density           (1974 walk vs static cell)
//	A4 wired fraction                    (6/12/24 of 48 frames wired)
//	C2 search primitive                  (real vs mythical probe cost)
//	C3 full-pack relocation              (one upward-signalled event)
//
// The storms of P4, P5, P9–P13, P15, P16, A1, A2 and A4 are scenarios
// of the internal/workload catalogue; the other rows pair a kernel half
// with the 1974 baseline or a model, or script one kernel event. Each
// row fixes its own length, so no figure depends on how long the run
// is. Every row runs its kernel calls under the deterministic executor
// with one schedule seed, the single-processor ones on processor 0, so
// every figure is byte-reproducible. Every comparison is also written
// machine-readable to the path named by -json (default
// BENCH_kernel.json; empty disables). With -compare OLD.json the run
// diffs its cycle figures against a previous report and exits non-zero
// when any has regressed by more than 10% or is missing from the run,
// so a committed baseline turns the benchmark into a gate.
// -cpuprofile and -memprofile write host-clock profiles of the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/baseline"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/hw"
	"multics/internal/linker"
	"multics/internal/netmux"
	"multics/internal/pageframe"
	"multics/internal/profile"
	"multics/internal/trace"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// schedSeed seeds the deterministic executor that runs every
// multiprocessor row.
const schedSeed = 1977

// sim is the executor of every multiprocessor row: cooperative tasks
// under a seeded schedule, so each row's figures reproduce exactly.
var sim = uproc.SimExecutor{Seed: schedSeed}

// A benchResult is one comparison's machine-readable form.
type benchResult struct {
	Name    string         `json:"name"`
	Metrics map[string]any `json:"metrics"`
}

var results []benchResult

// record keeps one comparison's numbers for the JSON report.
func record(name string, metrics map[string]any) {
	results = append(results, benchResult{Name: name, Metrics: metrics})
}

func main() {
	jsonPath := flag.String("json", "BENCH_kernel.json", "write machine-readable results to this path (empty disables)")
	comparePath := flag.String("compare", "", "diff cycle figures against this previous report; exit non-zero on a >10% regression")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of every row to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the last row to this file")
	flag.Parse()
	stopProfile, err := profile.Start(*cpuProfile, *memProfile)
	check(err)
	fmt.Println("kernelbench: deterministic simulated-cycle comparisons")
	fmt.Println()
	p1()
	p2()
	p3()
	p4()
	p5Base, p5Kern := p5()
	p6()
	p7()
	p8()
	p9()
	p11(p10())
	p12()
	p13()
	p15()
	p16()
	a1()
	a2(p5Base, p5Kern)
	a3()
	a4()
	c2()
	c3()
	check(stopProfile())
	if *jsonPath != "" {
		out, err := json.MarshalIndent(map[string]any{"benchmarks": results}, "", "  ")
		check(err)
		check(os.WriteFile(*jsonPath, append(out, '\n'), 0o644))
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
	if *comparePath != "" {
		if !compare(*comparePath) {
			os.Exit(1)
		}
	}
}

// compare diffs every cycle-denominated figure of this run against the
// report at path and reports whether the run is free of regressions
// beyond 10% and produced every figure of the report. Figures are
// matched by benchmark name and metric path, so reordering or adding
// benchmarks does not misalign the diff.
func compare(path string) bool {
	oldRaw, err := os.ReadFile(path)
	check(err)
	var oldDoc any
	check(json.Unmarshal(oldRaw, &oldDoc))
	// Round-trip the fresh results through JSON so both sides flatten
	// from the same generic shape.
	newRaw, err := json.Marshal(map[string]any{"benchmarks": results})
	check(err)
	var newDoc any
	check(json.Unmarshal(newRaw, &newDoc))
	oldCyc := make(map[string]float64)
	newCyc := make(map[string]float64)
	cycleLeaves("", oldDoc, oldCyc)
	cycleLeaves("", newDoc, newCyc)
	const tolerance = 1.10
	keys := make([]string, 0, len(oldCyc))
	for key := range oldCyc {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	regressed, compared, missing := 0, 0, 0
	for _, key := range keys {
		old := oldCyc[key]
		now, ok := newCyc[key]
		if !ok {
			fmt.Printf("MISSING %s: %.0f cycles in the baseline, absent from this run\n", key, old)
			missing++
			continue
		}
		if old <= 0 {
			continue
		}
		compared++
		if now > old*tolerance {
			fmt.Printf("REGRESSION %s: %.0f -> %.0f cycles (%+.1f%%)\n", key, old, now, 100*(now-old)/old)
			regressed++
		}
	}
	fmt.Printf("compared %d cycle figures against %s, %d missing from this run\n", compared, path, missing)
	if regressed > 0 || missing > 0 {
		fmt.Printf("kernelbench: %d of %d cycle figures regressed more than 10%%, %d missing\n", regressed, compared, missing)
		return false
	}
	fmt.Println("no regression beyond 10%")
	return true
}

// cycleLeaves collects every numeric leaf whose key mentions cycles,
// keyed by its path. Array elements carrying a "name" field (the
// benchmark list) are keyed by that name instead of their index.
func cycleLeaves(path string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, v2 := range x {
			cycleLeaves(path+"/"+k, v2, out)
		}
	case []any:
		for i, v2 := range x {
			key := fmt.Sprintf("%d", i)
			if m, ok := v2.(map[string]any); ok {
				if n, ok := m["name"].(string); ok {
					key = n
				}
			}
			cycleLeaves(path+"/"+key, v2, out)
		}
	case float64:
		parts := strings.Split(path, "/")
		leaf := strings.ToLower(parts[len(parts)-1])
		if strings.Contains(leaf, "cycles") {
			out[path] = x
		}
	}
}

func bootKernel(mutate func(*core.Config)) *core.Kernel {
	cfg := core.DefaultConfig()
	cfg.RootQuota = 100000
	cfg.Packs = []core.PackSpec{{ID: "dska", Records: 8192}, {ID: "dskb", Records: 8192}}
	if mutate != nil {
		mutate(&cfg)
	}
	k, err := core.Boot(cfg)
	check(err)
	return k
}

func bootBase(mutate func(*baseline.Config)) *baseline.Supervisor {
	cfg := baseline.DefaultConfig()
	cfg.RootQuota = 100000
	for i := range cfg.Packs {
		cfg.Packs[i].Records = 8192
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := baseline.BootBaseline(cfg)
	check(err)
	return s
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelbench:", err)
		os.Exit(1)
	}
}

// serial runs f on processor 0 under sim: the rows outside the
// catalogue run their kernel calls on a task, as the storms do.
func serial(k *core.Kernel, f func()) {
	check(sim.Run(k.CPUs[:1], func(*hw.Processor) { f() }))
}

// run boots kernelbench's machine, shaped by mutate and then by the
// scenario's own configuration, and drives s on it under sim: tune sees
// the booted kernel before Setup, mark sees it after, just before the
// measured Run. Any of the three may be nil.
func run(s workload.Scenario, mutate func(*core.Config), tune, mark func(*core.Kernel)) *core.Kernel {
	k := bootKernel(func(c *core.Config) {
		if mutate != nil {
			mutate(c)
		}
		s.Configure(c)
	})
	if tune != nil {
		tune(k)
	}
	if s.Setup != nil {
		check(s.Setup(k, sim))
	}
	if mark != nil {
		mark(k)
	}
	check(s.Run(k, sim))
	return k
}

// busiestSince snapshots k's processor accounts and returns a function
// that reports the largest advance of any of them since.
func busiestSince(k *core.Kernel) func() int64 {
	base := make([]int64, len(k.CPUs))
	for i := range base {
		base[i] = k.Meter.CPUCycles(i)
	}
	return func() (busiest int64) {
		for i, c := range base {
			busiest = max(busiest, k.Meter.CPUCycles(i)-c)
		}
		return busiest
	}
}

func ratio(a, b int64) string {
	return fmt.Sprintf("%+.1f%%", 100*float64(a-b)/float64(b))
}

// user gives a fresh process to processor 0.
func user(k *core.Kernel) (*hw.Processor, *uproc.Process) {
	p, err := k.CreateProcess("u.x", aim.Bottom)
	check(err)
	k.Attach(k.CPUs[0], p)
	return k.CPUs[0], p
}

func p1() {
	cost := func(mode linker.Mode) (perRef int64) {
		k := bootKernel(nil)
		serial(k, func() {
			cpu, p := user(k)
			_, err := k.CreateDir(cpu, p, nil, "lib", directory.Public(hw.Read|hw.Write), aim.Bottom)
			check(err)
			for i := 0; i < 32; i++ {
				_, err = k.CreateFile(cpu, p, []string{"lib"}, fmt.Sprintf("s%d_", i), directory.Public(hw.Read|hw.Execute), aim.Bottom)
				check(err)
			}
			l := linker.New(mode, k.Meter, func(sym string) (linker.Target, error) {
				segno, err := k.OpenPath(cpu, p, []string{"lib", sym})
				return linker.Target{Segno: segno}, err
			})
			k.Meter.Reset()
			lk := linker.NewLinkage()
			for i := 0; i < 32; i++ {
				_, err := l.Reference(cpu, lk, fmt.Sprintf("s%d_", i))
				check(err)
			}
			perRef = k.Meter.Cycles() / 32
		})
		return perRef
	}
	in, out := cost(linker.InKernel), cost(linker.UserRing)
	fmt.Printf("P1 linker snap:        in-kernel %6d cyc, user-ring %6d cyc (%s)  [paper: somewhat slower when removed]\n",
		in, out, ratio(out, in))
	record("P1 linker snap", map[string]any{"in_kernel_cycles": in, "user_ring_cycles": out})
}

func p2() {
	var walk, buried int64
	k := bootKernel(nil)
	serial(k, func() {
		cpu, p := user(k)
		var path []string
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("d%d", i)
			_, err := k.CreateDir(cpu, p, path, name, directory.Public(hw.Read|hw.Write), aim.Bottom)
			check(err)
			path = append(path, name)
		}
		_, err := k.CreateFile(cpu, p, path, "leaf", directory.Public(hw.Read), aim.Bottom)
		check(err)
		full := append(path, "leaf")
		k.Meter.Reset()
		for i := 0; i < 100; i++ {
			_, err := k.WalkPath(cpu, p, full)
			check(err)
		}
		walk = k.Meter.Cycles() / 100
		k.Meter.Reset()
		for i := 0; i < 100; i++ {
			_, err := k.ResolveKernel(cpu, p, full)
			check(err)
		}
		buried = k.Meter.Cycles() / 100
	})
	fmt.Printf("P2 pathname resolve:   in-kernel %6d cyc, user-ring %6d cyc (%s)  [paper: somewhat faster when removed]\n",
		buried, walk, ratio(walk, buried))
	record("P2 pathname resolve", map[string]any{"in_kernel_cycles": buried, "user_ring_cycles": walk})
}

func p3() {
	cost := func(mode answering.Mode) int64 {
		meter := &hw.CostMeter{}
		svc := answering.New(mode, meter, func(string, aim.Label) (any, error) { return 1, nil })
		check(svc.Register("u.x", "pw", aim.Top))
		meter.Reset()
		for i := 0; i < 50; i++ {
			sess, err := svc.Login("u.x", "pw", aim.Bottom)
			check(err)
			check(svc.Logout(sess, 1))
		}
		return meter.Cycles() / 50
	}
	mono, split := cost(answering.Monolithic), cost(answering.Split)
	fmt.Printf("P3 login:              monolithic %4d cyc, split %4d cyc (%s)  [paper: about 3%% slower]\n",
		mono, split, ratio(split, mono))
	record("P3 login", map[string]any{"monolithic_cycles": mono, "split_cycles": split})
}

func p4() {
	factor := float64(hw.BodyCycles(1000, hw.PLI)) / 1000
	lang := func(l hw.Language) func(*core.Kernel) { return func(k *core.Kernel) { k.Frames.Lang = l } }
	asm, pli := faultStorm(p5Storm(), nil, lang(hw.ASM))/faultReads, faultStorm(p5Storm(), nil, lang(hw.PLI))/faultReads
	fmt.Printf("P4 PL/I recode:        algorithm body x%.1f instructions (hw.BodyCycles model)  [paper: somewhat more than a factor of two]\n",
		factor)
	fmt.Printf("    fault path:        asm %5d cyc, PL/I %5d cyc (%s)  [disk transfers dominate the fault]\n",
		asm, pli, ratio(pli, asm))
	record("P4 PL/I recode", map[string]any{"instruction_factor": factor, "asm_fault_cycles": asm, "pli_fault_cycles": pli})
}

// faultReads is the length of the fault storms of P4, P5, P9 and the
// ablations A1, A2 and A4.
const faultReads = 200

// p5Storm is the fault storm of P4, P5 and P9: reads of a 32-page file
// in 16 pageable frames.
func p5Storm() workload.Scenario { return workload.FaultStorm(16, 32, faultReads, false) }

// faultStorm boots kernelbench's machine for the fault storm s, shaped
// further by mutate and tuned by tune once booted, and returns the
// meter delta of its run.
func faultStorm(s workload.Scenario, mutate func(*core.Config), tune func(*core.Kernel)) int64 {
	var start hw.MeterSnapshot
	k := run(s, mutate, tune, func(k *core.Kernel) { start = k.Meter.Snapshot() })
	return k.Meter.Since(start)
}

// ungroupedFaultStorm is P5's fault storm on the kernel as the 1976
// system ran it: no associative memory (the 1974 baseline models no
// translation cache either) and one victim per eviction pass. The
// storm only reads, so it writes nothing back, and the missing
// associative memory costs it nothing: its whole difference from the
// kernel's own figure is single-victim eviction.
func ungroupedFaultStorm() int64 {
	return faultStorm(p5Storm(), func(c *core.Config) { c.AssocOff = true }, func(k *core.Kernel) { k.Frames.FrameBatch = 1 })
}

// baselineFaultStorm is the read fault storm on the 1974 supervisor:
// faultReads round-robin reads of a pages-page file in frames pageable
// frames.
func baselineFaultStorm(frames, pages int) int64 {
	s := bootBase(func(c *baseline.Config) { c.MemFrames = frames + 8; c.WiredFrames = 8 })
	check(s.Create("u.x", "hot", false))
	p := s.CreateProcess("u.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "hot")
	check(err)
	for i := 0; i < pages; i++ {
		check(s.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)))
	}
	start := s.Meter.Snapshot()
	for i := 0; i < faultReads; i++ {
		_, err := s.Read(cpu, p, segno, (i%pages)*hw.PageWords)
		check(err)
	}
	return s.Meter.Since(start)
}

// p5 returns its 1974 and kernel cycles per fault, which A2 reuses as
// its 16-frame point.
func p5() (base, kern int64) {
	base, kern = baselineFaultStorm(16, 32)/faultReads, faultStorm(p5Storm(), nil, nil)/faultReads
	ungrouped := ungroupedFaultStorm() / faultReads
	fmt.Printf("P5 page-fault path:    1974 %5d cyc, kernel %5d cyc (%s)  [paper: negative, not significant]\n",
		base, kern, ratio(kern, base))
	fmt.Printf("    as run in 1976:    single-victim eviction, no associative memory %5d cyc (%s)\n",
		ungrouped, ratio(ungrouped, base))
	record("P5 page-fault path", map[string]any{"baseline_cycles": base, "kernel_cycles": kern, "kernel_ungrouped_cycles": ungrouped})
	return base, kern
}

// quotaPages is how many pages P6's and A3's growth charges.
const quotaPages = 50

// quotaGrowth returns the meter deltas of quotaPages charged page
// growths of a file depth directories deep: on the kernel, charged to
// the statically bound cell, and on the 1974 supervisor, whose charge
// walks up the hierarchy to the nearest quota directory. With
// quotaEvery > 0 every quotaEvery-th directory from the top is a quota
// directory on the 1974 side; with 0 (P6) none is, and the walk climbs
// to the root.
func quotaGrowth(depth, quotaEvery int) (kernel, base int64) {
	k := bootKernel(nil)
	serial(k, func() {
		cpu, p := user(k)
		var path []string
		for i := 0; i < depth; i++ {
			name := fmt.Sprintf("d%d", i)
			_, err := k.CreateDir(cpu, p, path, name, directory.Public(hw.Read|hw.Write), aim.Bottom)
			check(err)
			path = append(path, name)
		}
		_, err := k.CreateFile(cpu, p, path, "f", nil, aim.Bottom)
		check(err)
		segno, err := k.OpenPath(cpu, p, append(path, "f"))
		check(err)
		start := k.Meter.Snapshot()
		for i := 0; i < quotaPages; i++ {
			check(k.Write(cpu, p, segno, i*hw.PageWords, 1))
		}
		kernel = k.Meter.Since(start)
	})

	s := bootBase(nil)
	bp := ""
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("d%d", i)
		if bp == "" {
			bp = name
		} else {
			bp += ">" + name
		}
		check(s.Create("u.x", bp, true))
		if quotaEvery > 0 && i%quotaEvery == 0 {
			check(s.SetQuota("u.x", bp, 1<<20))
		}
	}
	check(s.Create("u.x", bp+">f", false))
	proc := s.CreateProcess("u.x")
	bcpu := s.CPUs[0]
	s.Attach(bcpu, proc)
	bsegno, err := s.Open(proc, bp+">f")
	check(err)
	start := s.Meter.Snapshot()
	for i := 0; i < quotaPages; i++ {
		check(s.Write(bcpu, proc, bsegno, i*hw.PageWords, 1))
	}
	return kernel, s.Meter.Since(start)
}

func p6() {
	fmt.Println("P6 quota growth (cycles per charged page):")
	var rows []map[string]any
	for _, depth := range []int{1, 2, 4, 8, 16} {
		kern, base := quotaGrowth(depth, 0)
		kern, base = kern/quotaPages, base/quotaPages
		fmt.Printf("    depth %2d: static cell %5d cyc, dynamic walk %5d cyc\n", depth, kern, base)
		rows = append(rows, map[string]any{"depth": depth, "static_cell_cycles": kern, "dynamic_walk_cycles": base})
	}
	fmt.Println("    [paper: the static binding removes the upward search entirely]")
	record("P6 quota growth", map[string]any{"per_depth": rows})
}

// netFrames is how many frames P7's per-frame cost averages over.
const netFrames = 100

// frameCost returns the meter delta of netFrames deliver-and-receive
// round trips through a mode demultiplexer with a 4-link ARPANET
// attached.
func frameCost(mode netmux.Mode) int64 {
	meter := &hw.CostMeter{}
	m := netmux.New(mode, meter, nil)
	check(m.Attach(netmux.Arpanet{Links: 4}))
	cpu := hw.NewProcessor(0, hw.NewMemory(1), meter)
	cpu.Ring = hw.UserRing
	frame := netmux.Frame{Channel: 1, Payload: []hw.Word{0, 2, 4, 6}}
	start := meter.Snapshot()
	for i := 0; i < netFrames; i++ {
		check(m.Deliver(cpu, "arpanet", frame))
		if _, ok := m.Receive("arpanet", 1); !ok {
			check(errors.New("p7: a delivered frame was not received"))
		}
	}
	return meter.Since(start)
}

func p7() {
	fmt.Println("P7 network kernel bulk (source lines) by attached networks:")
	var rows []map[string]any
	for n := 1; n <= 6; n++ {
		per, gen := netmux.KernelLines(netmux.PerNetworkKernel, n), netmux.KernelLines(netmux.GenericKernel, n)
		fmt.Printf("    %d networks: per-network-in-kernel %6d lines, generic %5d lines\n", n, per, gen)
		rows = append(rows, map[string]any{"networks": n, "per_network_lines": per, "generic_lines": gen})
	}
	fmt.Println("    [paper: 7,000 lines shrink below 1,000 and grow only slightly per network]")
	per, gen := frameCost(netmux.PerNetworkKernel)/netFrames, frameCost(netmux.GenericKernel)/netFrames
	fmt.Printf("    per frame (4-link ARPANET): per-network-in-kernel %4d cyc, generic %4d cyc (%s)\n", per, gen, ratio(gen, per))
	record("P7 network kernel bulk", map[string]any{
		"per_networks":             rows,
		"per_network_frame_cycles": per,
		"generic_frame_cycles":     gen,
	})
}

// schedQuanta is the length of P8's quantum runs.
const schedQuanta = 100

// schedulerQuanta returns the meter deltas of schedQuanta quanta over
// four processes: on the 1974 one-level scheduler and on the kernel's
// two-level one.
func schedulerQuanta() (oneLevel, twoLevel int64) {
	s := bootBase(nil)
	for i := 0; i < 4; i++ {
		s.CreateProcess("u.x")
	}
	start := s.Meter.Snapshot()
	_, err := s.RunQuantum(schedQuanta, func(*baseline.Process) {})
	check(err)
	oneLevel = s.Meter.Since(start)

	// One processor, whose worker rotates through all four processes
	// as the one-level scheduler does.
	k := bootKernel(func(c *core.Config) { c.Processors = 1 })
	serial(k, func() {
		for i := 0; i < 4; i++ {
			_, err := k.CreateProcess("u.x", aim.Bottom)
			check(err)
		}
	})
	start = k.Meter.Snapshot()
	_, err = k.Procs.RunQuantumWith(sim, k.CPUs, schedQuanta, nil)
	check(err)
	twoLevel = k.Meter.Since(start)
	return oneLevel, twoLevel
}

func p8() {
	one, two := schedulerQuanta()
	one, two = one/schedQuanta, two/schedQuanta
	fmt.Printf("P8 scheduler quantum:  one-level %4d cyc, two-level %4d cyc (%s)  [paper: about the same]\n",
		one, two, ratio(two, one))
	record("P8 scheduler quantum", map[string]any{"one_level_cycles": one, "two_level_cycles": two})
}

// p9 reruns the P5 fault storm on a traced kernel and attributes its
// cycles module by module: the meters say where the page-fault path
// actually spends its time.
func p9() {
	fmt.Println("P9 fault-storm cycle attribution (event tracing on):")
	var before trace.Snapshot
	k := run(p5Storm(), func(c *core.Config) { c.TraceEvents = 1 << 14 },
		func(k *core.Kernel) { before = k.Trace.Snapshot() }, nil)
	diff := k.Trace.Snapshot().Since(before)
	fmt.Print(diff.Table(k.CertificationOrder()))
	record("P9 fault-storm attribution", map[string]any{"table": diff.Table(k.CertificationOrder())})
}

// p10 measures true-multiprocessor throughput on a paging- and
// quota-heavy workload. A fixed amount of work — rounds of growing a
// file page by page under quota, reading it back, and truncating it —
// is divided among 1, 2 and 4 simulated processors under the
// deterministic executor; the figure of merit is the simulated
// makespan: the busiest processor's cycle account (lock waits cost no
// simulated cycles, so this is the ideal-hardware speedup). It returns
// the makespans by processor count, which P11 reuses as its cache-on
// rows.
func p10() map[int]int64 {
	fmt.Println("P10 parallel speedup (fixed work, simulated makespan = busiest processor's cycles):")
	var base int64
	var rows []map[string]any
	makespans := make(map[int]int64)
	for _, nCPU := range []int{1, 2, 4} {
		makespan, ops := pagingStorm(nCPU, stormRounds, false)
		makespans[nCPU] = makespan
		speedup := 1.0
		if base == 0 {
			base = makespan
		} else {
			speedup = float64(base) / float64(makespan)
		}
		fmt.Printf("    %d processors: %9d cyc makespan over %d rounds  speedup x%.2f\n", nCPU, makespan, ops, speedup)
		rows = append(rows, map[string]any{"processors": nCPU, "makespan_cycles": makespan, "rounds": ops, "speedup": speedup})
	}
	fmt.Println("    [design: distinct processes on distinct processors under lattice-ranked locks]")
	record("P10 parallel speedup", map[string]any{"per_processors": rows})
	return makespans
}

// stormRounds is the fixed work of P10's and P11's paging storms.
const stormRounds = 192

// pagingStorm boots an nCPU kernel and drives workload.PagingStorm's
// totalRounds rounds on it. It returns the busiest processor's cycle
// account across the storm (the makespan) and the rounds run.
func pagingStorm(nCPU, totalRounds int, assocOff bool) (int64, int) {
	var span func() int64
	run(workload.PagingStorm(totalRounds), func(c *core.Config) {
		c.Processors = nCPU
		c.AssocOff = assocOff
	}, nil, func(k *core.Kernel) { span = busiestSince(k) })
	return span(), totalRounds / nCPU * nCPU
}

// p11 measures the associative memory two ways. First, a single
// processor re-references a resident working set: with the cache off
// every reference walks the descriptor tables (CycTableWalk); with it
// on the re-references hit (CycAssocHit), and the processor's own
// translation meter shows the cycles saved. Second, the P10 fault
// storm runs on 1, 2 and 4 processors with the cache off, against
// P10's makespans (cacheOn, by processor count) with it on: the
// on-configuration pays the shootdown broadcasts but keeps the fast
// path, and the makespans show the net effect under contention.
func p11(cacheOn map[int]int64) {
	fmt.Println("P11 associative memory (per-processor SDW/PTW cache):")
	reReference := func(assocOff bool) (xlatCycles int64, stats pageframe.Stats) {
		k := bootKernel(func(c *core.Config) { c.AssocOff = assocOff })
		const pages = 16 // resident throughout: re-references, not faults
		serial(k, func() {
			w, err := workload.HotFile(k, "u.x", pages)
			check(err)
			_, start := w.CPU.TranslationStats()
			for r := 0; r < 400; r++ {
				_, err := k.Read(w.CPU, w.Proc, w.Segno, (r%pages)*hw.PageWords+r%hw.PageWords)
				check(err)
			}
			_, end := w.CPU.TranslationStats()
			xlatCycles = end - start
		})
		return xlatCycles, k.Frames.Stats()
	}
	onCycles, onStats := reReference(false)
	offCycles, _ := reReference(true)
	hitRate := 0.0
	if total := onStats.AssocHits + onStats.AssocMisses; total > 0 {
		hitRate = float64(onStats.AssocHits) / float64(total)
	}
	fmt.Printf("    re-reference translation cycles: cache on %6d, off %6d (x%.1f saved); hit rate %.1f%% (%d hits, %d misses)\n",
		onCycles, offCycles, float64(offCycles)/float64(onCycles), 100*hitRate, onStats.AssocHits, onStats.AssocMisses)
	metrics := map[string]any{
		"re_reference_cache_on_translation_cycles":  onCycles,
		"re_reference_cache_off_translation_cycles": offCycles,
		"translation_speedup":                       float64(offCycles) / float64(onCycles),
		"hits":                                      onStats.AssocHits,
		"misses":                                    onStats.AssocMisses,
		"hit_rate":                                  hitRate,
	}
	var rows []map[string]any
	for _, nCPU := range []int{1, 2, 4} {
		on := cacheOn[nCPU]
		off, _ := pagingStorm(nCPU, stormRounds, true)
		fmt.Printf("    %d-processor fault-storm makespan: cache on %9d cyc, off %9d cyc (%s)\n",
			nCPU, on, off, ratio(on, off))
		rows = append(rows, map[string]any{
			"processors":               nCPU,
			"makespan_cycles_cache_on": on, "makespan_cycles_cache_off": off,
		})
	}
	fmt.Println("    [6180 hardware: the associative memory absorbs the descriptor re-fetches; shootdowns keep it coherent]")
	metrics["smp_makespan"] = rows
	record("P11 associative memory", metrics)
}

// p12 drives the login storm (workload.Logins) through the
// scheduler's one ready queue: 1k and 10k users register, log in, timeshare through
// rounds of quanta with block/wake churn over the real-memory queue,
// and log out, on 1, 2 and 4 processors. The figures of merit are the
// per-login cycle cost, the dispatch cost per quantum — which stays
// flat as the user count grows tenfold, the O(1) ready-queue claim —
// and the time-to-first-quantum tail, each process's creation to its
// first dispatch. Every phase runs under the deterministic executor,
// so every row, multiprocessor ones included, feeds the -compare gate.
func p12() {
	fmt.Println("P12 login storm (one ready queue, sharded process table, eventcount wakeups):")
	var rows []map[string]any
	for _, users := range []int{1000, 10000} {
		for _, nCPU := range []int{1, 2, 4} {
			rows = append(rows, loginStorm(users, nCPU))
		}
	}
	fmt.Println("    [the per-quantum dispatch cost holds flat from 1k to 10k users: O(1) ready-queue dispatch]")
	record("P12 login storm", map[string]any{"per_config": rows})
}

// loginStorm runs one P12 configuration and returns its report row.
func loginStorm(users, nCPU int) map[string]any {
	s, res := workload.Logins(users, 97)
	stats := run(s, func(c *core.Config) { c.Processors = nCPU }, nil, nil).Procs.SchedStats()
	loginPer := res.LoginCycles / int64(res.Logins)
	ttfq := res.FirstQuanta
	pct := func(q float64) int64 {
		if len(ttfq) == 0 {
			return 0
		}
		return ttfq[int(q*float64(len(ttfq)-1))]
	}
	var perQuantum int64
	if stats.Dispatches > 0 {
		perQuantum = res.QuantaCycles / stats.Dispatches
	}
	fmt.Printf("    %5d users %d cpu: login %5d cyc/user, dispatch %4d cyc/quantum, ttfq p50 %9d p99 %9d max %9d cyc, depth %d\n",
		users, nCPU, loginPer, perQuantum, pct(0.50), pct(0.99), ttfq[len(ttfq)-1], stats.MaxQueueDepth)
	return map[string]any{
		"users": users, "processors": nCPU,
		"dispatches": stats.Dispatches, "first_quanta": len(ttfq),
		"wakeups": stats.Wakeups,
		"blocked": res.Blocked, "woken": res.Woken,
		"max_queue_depth":             stats.MaxQueueDepth,
		"login_cycles_per_user":       loginPer,
		"dispatch_cycles_per_quantum": perQuantum,
		"ttfq_p50_cycles":             pct(0.50),
		"ttfq_p99_cycles":             pct(0.99),
		"ttfq_max_cycles":             ttfq[len(ttfq)-1],
	}
}

// p13 measures fault-service latency with the span tracer on: the P10
// fault storm reruns at 1, 2 and 4 processors, and the page frame
// manager's fault-service histogram yields p50/p99/max. Spans are
// stamped from the simulated cycle clock and the storm runs under the
// deterministic executor, so every figure is byte-reproducible and
// feeds the -compare regression gate.
func p13() {
	fmt.Println("P13 fault-service latency (log2-bucketed span histograms over the fault storm):")
	var rows []map[string]any
	for _, nCPU := range []int{1, 2, 4} {
		k := run(workload.LatencyStorm(200), func(c *core.Config) {
			c.Processors = nCPU
			c.TraceEvents = 1 << 15
		}, nil, nil)
		snap := k.Trace.Snapshot()
		h := snap.Spans[trace.SpanKey{Module: pageframe.ModuleName, Kind: trace.SpanFaultService}]
		p50, p99 := h.Percentile(0.50), h.Percentile(0.99)
		fmt.Printf("    %d processors: p50 %7d cyc  p99 %7d cyc  max %7d cyc  over %d fault services\n",
			nCPU, p50, p99, h.Max, h.Count)
		rows = append(rows, map[string]any{
			"processors": nCPU, "services": h.Count,
			"p50_cycles": p50, "p99_cycles": p99, "max_cycles": h.Max,
		})
	}
	fmt.Println("    [percentiles are log2 bucket upper bounds; every figure is deterministic and gated]")
	record("P13 fault-service latency", map[string]any{"per_processors": rows})
}

// p15 measures the async disk pipeline: per-CPU workers each write a
// private file, the segments are deactivated (pages written back,
// frames freed), and every worker then scans its file sequentially
// under the deterministic executor — a pure fault storm of stored
// pages. New files spread round-robin across the packs, so pack count
// divides the transfer load between device arms. The bottleneck
// figure is the busier of the busiest processor account and the
// busiest device account: the makespan of the overlapped pipeline,
// since a faulter blocks on its pack's completion eventcount while
// the other packs' elevators and the other processors keep running.
// Every row is produced under the sim executor, so the figures feed
// the -compare gate.
func p15() {
	fmt.Println("P15 disk pipeline fault storm (sequential scans; bottleneck = max of busiest CPU and busiest device):")
	var rows []map[string]any
	for _, nCPU := range []int{1, 2, 4} {
		var onePack int64
		for _, nPack := range []int{1, 2, 4} {
			cpu, device, faults, hits := diskStorm(nCPU, nPack)
			bottleneck := max(cpu, device)
			gain := ""
			if nPack == 1 {
				onePack = bottleneck
			} else if bottleneck > 0 {
				gain = fmt.Sprintf("  x%.2f vs 1 pack", float64(onePack)/float64(bottleneck))
			}
			hitRate := 0.0
			if faults > 0 {
				hitRate = float64(hits) / float64(faults)
			}
			fmt.Printf("    %d CPU %d pack: bottleneck %8d cyc (cpu %8d, device %8d)  read-ahead %3.0f%% of %d faults%s\n",
				nCPU, nPack, bottleneck, cpu, device, 100*hitRate, faults, gain)
			rows = append(rows, map[string]any{
				"processors":            nCPU,
				"packs":                 nPack,
				"bottleneck_cycles":     bottleneck,
				"busiest_cpu_cycles":    cpu,
				"busiest_device_cycles": device,
				"faults":                faults,
				"prefetch_hits":         hits,
				"readahead_hit_rate":    hitRate,
			})
		}
	}
	fmt.Println("    [spreading the storm's files over four packs beats one pack because the per-pack elevators run concurrently]")
	record("P15 disk pipeline fault storm", map[string]any{"per_config": rows})
}

// diskStorm runs one P15 configuration and returns the scan phase's
// deltas: busiest processor account, busiest pack device account,
// fault count and read-ahead hits.
func diskStorm(nCPU, nPacks int) (cpu, device, faults, hits int64) {
	devices := func(k *core.Kernel) map[string]int64 {
		cycles := make(map[string]int64)
		for _, id := range k.Vols.Packs() {
			p, err := k.Vols.Pack(id)
			check(err)
			cycles[id] = p.DeviceCycles()
		}
		return cycles
	}
	var span func() int64
	var dev0 map[string]int64
	var st0 pageframe.Stats
	k := run(workload.DiskScan(24), func(c *core.Config) {
		c.Processors = nCPU
		c.Packs = nil
		for i := 0; i < nPacks; i++ {
			c.Packs = append(c.Packs, core.PackSpec{ID: fmt.Sprintf("dsk%c", 'a'+i), Records: 8192})
		}
	}, nil, func(k *core.Kernel) { span, dev0, st0 = busiestSince(k), devices(k), k.Frames.Stats() })
	for id, cyc := range devices(k) {
		device = max(device, cyc-dev0[id])
	}
	st := k.Frames.Stats()
	return span(), device, st.Faults - st0.Faults, st.PrefetchHits - st0.PrefetchHits
}

// p16 scales the front-end connection plane: one terminal frame per
// connection storms through the generic demultiplexer into the
// sharded connection table at 10k, 100k and a million lines, on 1, 2
// and 4 processors. The figure of merit is cycles per connection —
// demux, protocol body, routing into the ring, and the returned
// credit are each O(1), so the figure holds flat across two orders of
// magnitude of table growth. Delivery latency (enqueue to pop, in
// simulated cycles) comes from the plane's log2 histogram. A small
// subset of lines runs the real dialog — login frames through the
// answering service — and every row re-proves isolation: a line
// flooded past its credit window drops its own frames while a
// neighbor on the same shard loses nothing. The storm runs under the
// deterministic executor, so every row feeds the -compare gate.
func p16() {
	fmt.Println("P16 connection storm (front-end processor: sharded table, credit flow control, eventcount delivery):")
	var rows []map[string]any
	for _, conns := range []int{10_000, 100_000, 1_000_000} {
		for _, nCPU := range []int{1, 2, 4} {
			rows = append(rows, connStorm(conns, nCPU))
		}
	}
	fmt.Println("    [cycles per connection hold flat from 10k to 1M lines, and a slow line's drops land on it alone]")
	record("P16 connection storm", map[string]any{"per_config": rows})
}

// connStorm runs one P16 configuration and returns its report row.
func connStorm(conns, nCPU int) map[string]any {
	s, res := workload.ConnectionStorm(conns)
	run(s, func(c *core.Config) { c.Processors = nCPU }, nil, nil)
	terms := res.Node.Terminals
	perConn := res.StormCycles / int64(conns)
	p50, p99 := terms.LatencyPercentile(50), terms.LatencyPercentile(99)
	st := terms.Stats()
	fmt.Printf("    %7d conns %d cpu: %4d cyc/conn, delivery p50 %7d p99 %7d cyc, %7d frames, slow-line drops %d, healthy neighbor %d\n",
		conns, nCPU, perConn, p50, p99, st.Frames, res.SlowDrops, res.HealthyDrops)
	return map[string]any{
		"connections": conns, "processors": nCPU,
		"frames": st.Frames, "delivered": st.Delivered,
		"logins":          res.Logins,
		"slow_conn_drops": res.SlowDrops, "healthy_conn_drops": res.HealthyDrops,
		"mux_dropped":           res.Node.Mux.MuxStats().Dropped,
		"cycles_per_connection": perConn,
		"delivery_p50_cycles":   p50,
		"delivery_p99_cycles":   p99,
	}
}

// a1 isolates the cost of the multi-process memory manager (Huber's
// page-writer daemon): P5's storm writing instead of reading, with
// write-back inline and handed to the daemon.
func a1() {
	cost := func(daemons bool) int64 {
		s := workload.FaultStorm(16, 32, faultReads, true)
		return faultStorm(s, func(c *core.Config) { c.Daemons = daemons }, nil) / faultReads
	}
	inline, daemon := cost(false), cost(true)
	fmt.Printf("A1 page-writer daemon: inline write-back %5d cyc, daemon %5d cyc per write (%s)  [paper: a small but unavoidable cost]\n",
		inline, daemon, ratio(daemon, inline))
	record("A1 page-writer daemon", map[string]any{"inline_writeback_cycles": inline, "daemon_cycles": daemon})
}

// a2 sweeps pageable memory under P5's 32-page working set, from
// comfortable to cramped. Its 16-frame point is P5's storm, measured
// there and passed in.
func a2(p5Base, p5Kern int64) {
	fmt.Println("A2 memory pressure (cycles per reference, 32-page working set):")
	var rows []map[string]any
	for _, frames := range []int{48, 32, 16, 8} {
		base, kern := p5Base, p5Kern
		if frames != 16 {
			base = baselineFaultStorm(frames, 32) / faultReads
			kern = faultStorm(workload.FaultStorm(frames, 32, faultReads, false), nil, nil) / faultReads
		}
		fmt.Printf("    %2d frames: 1974 %5d cyc, kernel %5d cyc\n", frames, base, kern)
		rows = append(rows, map[string]any{"frames": frames, "baseline_cycles": base, "kernel_cycles": kern})
	}
	fmt.Println("    [paper: not significant unless the system were cramped for memory and thrashing]")
	record("A2 memory pressure", map[string]any{"per_frames": rows})
}

// a3 puts a quota directory every 12, 4 and 1 levels of a depth-12
// tree on the 1974 side, shortening its upward walk; the kernel's
// static cell does not depend on them.
func a3() {
	fmt.Println("A3 quota-directory density (cycles per charged page, depth 12):")
	var rows []map[string]any
	for _, every := range []int{12, 4, 1} {
		kern, base := quotaGrowth(12, every)
		kern, base = kern/quotaPages, base/quotaPages
		fmt.Printf("    quota directory every %2d levels: static cell %5d cyc, dynamic walk %5d cyc\n", every, kern, base)
		rows = append(rows, map[string]any{"quota_every": every, "static_cell_cycles": kern, "dynamic_walk_cycles": base})
	}
	record("A3 quota-directory density", map[string]any{"per_stride": rows})
}

// a4 wires 6, 12 and 24 of a 48-frame machine's frames under a 40-page
// working set: the core-segment discipline is paid in pageable frames.
func a4() {
	fmt.Println("A4 wired fraction (cycles per reference, 48 frames, 40-page working set):")
	var rows []map[string]any
	for _, wired := range []int{6, 12, 24} {
		s := workload.FaultStorm(48-wired, 40, faultReads, false)
		s.Config = func(c *core.Config) { c.MemFrames, c.WiredFrames = 48, wired }
		cyc := faultStorm(s, nil, nil) / faultReads
		fmt.Printf("    %2d wired: %5d cyc\n", wired, cyc)
		rows = append(rows, map[string]any{"wired_frames": wired, "reference_cycles": cyc})
	}
	record("A4 wired fraction", map[string]any{"per_wired": rows})
}

// searchProbes is the length of C2's probe runs.
const searchProbes = 100

// searchProbe returns the cycles of one probe for an entry of a real
// directory and of a mythical one.
func searchProbe() (real, mythical int64) {
	k := bootKernel(nil)
	serial(k, func() {
		cpu, p := user(k)
		_, err := k.CreateDir(cpu, p, nil, "d", directory.Public(hw.Read|hw.Write), aim.Bottom)
		check(err)
		_, err = k.CreateFile(cpu, p, []string{"d"}, "f", directory.Public(hw.Read), aim.Bottom)
		check(err)
		dir, err := k.WalkPath(cpu, p, []string{"d"})
		check(err)
		probe := func(dir directory.Identifier) int64 {
			start := k.Meter.Snapshot()
			for i := 0; i < searchProbes; i++ {
				_, err := k.Search(cpu, p, dir, "f")
				check(err)
			}
			return k.Meter.Since(start) / searchProbes
		}
		real, mythical = probe(dir), probe(directory.Identifier(0xdead))
	})
	return real, mythical
}

func c2() {
	real, mythical := searchProbe()
	fmt.Printf("C2 search primitive:   real directory %4d cyc, mythical %4d cyc  [paper: the caller cannot tell them apart]\n",
		real, mythical)
	record("C2 search primitive", map[string]any{"real_probe_cycles": real, "mythical_probe_cycles": mythical})
}

// c3 prices one full-pack relocation: a file grows page by page on a
// 24-record pack until a write overflows it, and that write's upward
// signal moves the segment to the large pack.
func c3() {
	k := bootKernel(func(c *core.Config) {
		c.Packs = []core.PackSpec{{ID: "p0", Records: 24}, {ID: "p1", Records: 1 << 20}}
		c.MemFrames, c.WiredFrames = 64, 8
	})
	var pages int
	var cycles int64
	serial(k, func() {
		cpu, p := user(k)
		_, err := k.CreateFile(cpu, p, nil, "victim", nil, aim.Bottom)
		check(err)
		segno, err := k.OpenPath(cpu, p, []string{"victim"})
		check(err)
		for restores := k.Restores(); k.Restores() == restores; pages++ {
			start := k.Meter.Snapshot()
			check(k.Write(cpu, p, segno, pages*hw.PageWords, hw.Word(pages+1)))
			cycles = k.Meter.Since(start)
		}
	})
	fmt.Printf("C3 full-pack relocation: write %d overflows the pack and relocates the segment in %d cyc\n", pages, cycles)
	record("C3 full-pack relocation", map[string]any{"pages": pages, "relocation_cycles": cycles})
}
