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
//
// Every multiprocessor row runs under the deterministic executor with
// one schedule seed, so every figure is byte-reproducible. Every
// comparison is also written machine-readable to the path named by
// -json (default BENCH_kernel.json; empty disables). With -compare
// OLD.json the run diffs its cycle figures against a previous report
// and exits non-zero when any has regressed by more than 10% or is
// missing from the run, so a committed baseline turns the benchmark
// into a gate.
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
	"multics/internal/fnp"
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
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of P1..P16 to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after P16 to this file")
	flag.Parse()
	stopProfile, err := profile.Start(*cpuProfile, *memProfile)
	check(err)
	fmt.Println("kernelbench: deterministic simulated-cycle comparisons")
	fmt.Println()
	p1()
	p2()
	p3()
	p4()
	p5()
	p6()
	p7()
	p8()
	p9()
	p11(p10())
	p12()
	p13()
	p15()
	p16()
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

// hotFile gives a fresh process on processor 0 a file whose first
// pages pages hold 1, 2, ...
func hotFile(k *core.Kernel, pages int) (*hw.Processor, *uproc.Process, int) {
	cpu, p := user(k)
	_, err := k.CreateFile(cpu, p, nil, "hot", nil, aim.Bottom)
	check(err)
	segno, err := k.OpenPath(cpu, p, []string{"hot"})
	check(err)
	for i := 0; i < pages; i++ {
		check(k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)))
	}
	return cpu, p, segno
}

func p1() {
	cost := func(mode linker.Mode) int64 {
		k := bootKernel(nil)
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
		return k.Meter.Cycles() / 32
	}
	in, out := cost(linker.InKernel), cost(linker.UserRing)
	fmt.Printf("P1 linker snap:        in-kernel %6d cyc, user-ring %6d cyc (%s)  [paper: somewhat slower when removed]\n",
		in, out, ratio(out, in))
	record("P1 linker snap", map[string]any{"in_kernel_cycles": in, "user_ring_cycles": out})
}

func p2() {
	k := bootKernel(nil)
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
	walk := k.Meter.Cycles() / 100
	k.Meter.Reset()
	for i := 0; i < 100; i++ {
		_, err := k.ResolveKernel(cpu, p, full)
		check(err)
	}
	buried := k.Meter.Cycles() / 100
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
	fmt.Printf("P4 PL/I recode:        algorithm body x%.1f instructions (hw.BodyCycles model)  [paper: somewhat more than a factor of two]\n",
		factor)
	record("P4 PL/I recode", map[string]any{"instruction_factor": factor})
}

func faultStorm(k *core.Kernel) int64 {
	cpu, p, segno := hotFile(k, 32)
	start := k.Meter.Snapshot()
	for i := 0; i < 200; i++ {
		_, err := k.Read(cpu, p, segno, (i%32)*hw.PageWords)
		check(err)
	}
	return k.Meter.Since(start) / 200
}

func p5() {
	s := bootBase(func(c *baseline.Config) { c.MemFrames = 24; c.WiredFrames = 8 })
	check(s.Create("u.x", "hot", false))
	p := s.CreateProcess("u.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "hot")
	check(err)
	for i := 0; i < 32; i++ {
		check(s.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)))
	}
	s.Meter.Reset()
	for i := 0; i < 200; i++ {
		_, err := s.Read(cpu, p, segno, (i%32)*hw.PageWords)
		check(err)
	}
	base := s.Meter.Cycles() / 200
	kern := faultStorm(bootKernel(func(c *core.Config) { c.MemFrames = 24; c.WiredFrames = 8 }))
	fmt.Printf("P5 page-fault path:    1974 %5d cyc, kernel %5d cyc (%s)  [paper: negative, not significant]\n",
		base, kern, ratio(kern, base))
	record("P5 page-fault path", map[string]any{"baseline_cycles": base, "kernel_cycles": kern})
}

func p6() {
	fmt.Println("P6 quota growth (cycles per charged page):")
	var rows []map[string]any
	for _, depth := range []int{1, 2, 4, 8, 16} {
		k := bootKernel(nil)
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
		segno, err := k.OpenPath(cpu, p, append(append([]string{}, path...), "f"))
		check(err)
		k.Meter.Reset()
		for i := 0; i < 50; i++ {
			check(k.Write(cpu, p, segno, i*hw.PageWords, 1))
		}
		kern := k.Meter.Cycles() / 50

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
		}
		check(s.Create("u.x", bp+">f", false))
		proc := s.CreateProcess("u.x")
		bcpu := s.CPUs[0]
		s.Attach(bcpu, proc)
		bsegno, err := s.Open(proc, bp+">f")
		check(err)
		s.Meter.Reset()
		for i := 0; i < 50; i++ {
			check(s.Write(bcpu, proc, bsegno, i*hw.PageWords, 1))
		}
		base := s.Meter.Cycles() / 50
		fmt.Printf("    depth %2d: static cell %5d cyc, dynamic walk %5d cyc\n", depth, kern, base)
		rows = append(rows, map[string]any{"depth": depth, "static_cell_cycles": kern, "dynamic_walk_cycles": base})
	}
	fmt.Println("    [paper: the static binding removes the upward search entirely]")
	record("P6 quota growth", map[string]any{"per_depth": rows})
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
	record("P7 network kernel bulk", map[string]any{"per_networks": rows})
}

func p8() {
	s := bootBase(nil)
	for i := 0; i < 4; i++ {
		s.CreateProcess("u.x")
	}
	s.Meter.Reset()
	_, err := s.RunQuantum(100, func(*baseline.Process) {})
	check(err)
	one := s.Meter.Cycles() / 100

	k := bootKernel(nil)
	for i := 0; i < 4; i++ {
		_, err := k.CreateProcess("u.x", aim.Bottom)
		check(err)
	}
	k.Meter.Reset()
	_, err = k.Procs.RunQuantum(100, func(*uproc.Process) {})
	check(err)
	two := k.Meter.Cycles() / 100
	fmt.Printf("P8 scheduler quantum:  one-level %4d cyc, two-level %4d cyc (%s)  [paper: about the same]\n",
		one, two, ratio(two, one))
	record("P8 scheduler quantum", map[string]any{"one_level_cycles": one, "two_level_cycles": two})
}

// p9 reruns the P5 fault storm on a traced kernel and attributes its
// cycles module by module: the meters say where the page-fault path
// actually spends its time.
func p9() {
	fmt.Println("P9 fault-storm cycle attribution (event tracing on):")
	k := bootKernel(func(c *core.Config) {
		c.MemFrames = 24
		c.WiredFrames = 8
		c.TraceEvents = 1 << 14
	})
	before := k.Trace.Snapshot()
	faultStorm(k)
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
		makespan, ops := pagingStorm(sim, nCPU, stormRounds, false)
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

// pagingStorm boots an nCPU kernel and drives totalRounds rounds of
// the paging+quota workload under ex, split evenly across the
// processors, each worker growing, reading back and truncating an
// 8-page file in its own quota directory. It returns the busiest
// processor's cycle account — the makespan — and the rounds run.
func pagingStorm(ex uproc.Executor, nCPU, totalRounds int, assocOff bool) (int64, int) {
	k := bootKernel(func(c *core.Config) {
		c.Processors = nCPU
		c.MemFrames = 48 // pressure enough that pages cycle through disk
		c.WiredFrames = 8
		c.AssocOff = assocOff
	})
	ws, err := workload.NewWorkers(k, nCPU, workload.Files{Prefix: "par", Quota: 4096})
	check(err)
	rounds := totalRounds / nCPU
	check(workload.Run(ex, ws, func(w *workload.Worker) error {
		for r := 0; r < rounds; r++ {
			if err := workload.GrowReadTruncate(k, w, r, 8); err != nil {
				return err
			}
		}
		return nil
	}))
	var busiest int64
	for i := 0; i < nCPU; i++ {
		busiest = max(busiest, k.Meter.CPUCycles(i))
	}
	return busiest, rounds * nCPU
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
		cpu, p, segno := hotFile(k, pages)
		_, start := cpu.TranslationStats()
		for r := 0; r < 400; r++ {
			_, err := k.Read(cpu, p, segno, (r%pages)*hw.PageWords+r%hw.PageWords)
			check(err)
		}
		_, end := cpu.TranslationStats()
		return end - start, k.Frames.Stats()
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
		off, _ := pagingStorm(sim, nCPU, stormRounds, true)
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

// p12 drives the login storm (workload.LoginStorm) through the sharded
// scheduler: 1k and 10k users register, log in, timeshare through
// rounds of quanta with block/wake churn over the real-memory queue,
// and log out, on 1, 2 and 4 processors. The figures of merit are the
// per-login cycle cost, the dispatch cost per quantum — which stays
// flat as the user count grows tenfold, the O(1) run-queue claim —
// and the time-to-first-quantum tail, each process's creation to its
// first dispatch. Every phase runs under the deterministic executor,
// so every row, multiprocessor ones included, feeds the -compare gate.
func p12() {
	fmt.Println("P12 login storm (sharded run queues, work stealing, eventcount wakeups):")
	var rows []map[string]any
	for _, users := range []int{1000, 10000} {
		for _, nCPU := range []int{1, 2, 4} {
			rows = append(rows, loginStorm(users, nCPU))
		}
	}
	fmt.Println("    [the per-quantum dispatch cost holds flat from 1k to 10k users: O(1) run-queue dispatch]")
	record("P12 login storm", map[string]any{"per_config": rows})
}

// loginStorm runs one P12 configuration and returns its report row.
// Primary memory is sized so the process states stay resident: the
// figures measure the scheduler, not the pager.
func loginStorm(users, nCPU int) map[string]any {
	k := bootKernel(func(c *core.Config) {
		c.Processors = nCPU
		c.ASTPages = (users+256)/128 + 2 // an ASTE per resident process state
		c.WiredFrames = c.ASTPages + 6
		c.MemFrames = users + 512 + c.WiredFrames
		c.Packs = []core.PackSpec{{ID: "dska", Records: 16384}, {ID: "dskb", Records: 16384}}
	})
	var procs []*uproc.Process
	svc := answering.New(answering.Split, k.Meter, func(principal string, label aim.Label) (any, error) {
		p, err := k.CreateProcess(principal, label)
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
		return p, nil
	})
	st, err := workload.LoginStorm{
		Users:          users,
		Rounds:         2,
		QuantaPerRound: 2*users/nCPU + 32,
		BlockEvery:     97,
	}.Run(k, sim, svc)
	check(err)
	stats := k.Procs.SchedStats()
	var loginSum int64
	for _, r := range svc.Records() {
		loginSum += r.LoginCycles
	}
	loginPer := loginSum / int64(st.Logins)
	var ttfq []int64
	for _, p := range procs {
		if fr := p.FirstRunCycle(); fr >= 0 {
			ttfq = append(ttfq, fr-p.CreatedCycle())
		}
	}
	sort.Slice(ttfq, func(i, j int) bool { return ttfq[i] < ttfq[j] })
	pct := func(q float64) int64 {
		if len(ttfq) == 0 {
			return 0
		}
		return ttfq[int(q*float64(len(ttfq)-1))]
	}
	var perQuantum int64
	if stats.Dispatches > 0 {
		perQuantum = st.QuantaCycles / stats.Dispatches
	}
	fmt.Printf("    %5d users %d cpu: login %5d cyc/user, dispatch %4d cyc/quantum, ttfq p50 %9d p99 %9d max %9d cyc, %5d steals, depth %d\n",
		users, nCPU, loginPer, perQuantum, pct(0.50), pct(0.99), ttfq[len(ttfq)-1], stats.Steals, stats.MaxQueueDepth)
	return map[string]any{
		"users": users, "processors": nCPU,
		"dispatches": stats.Dispatches, "first_quanta": len(ttfq),
		"steals": stats.Steals, "migrations": stats.Migrations,
		"donations": stats.Donations, "wakeups": stats.Wakeups,
		"blocked": st.Blocked, "woken": st.Woken,
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
		k := latencyStorm(nCPU)
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

// latencyStorm boots an nCPU kernel with span tracing on and drives
// the P5-shaped fault storm per processor: each worker writes a file
// larger than its share of primary memory, then cycles reads over it,
// so every service in the steady state fetches from disk and the
// fault-service histogram shows the full path — disk read, eviction
// write-back batches, shootdowns.
func latencyStorm(nCPU int) *core.Kernel {
	const (
		filePages = 32
		reads     = 200
	)
	k := bootKernel(func(c *core.Config) {
		c.Processors = nCPU
		// The pageable pool grows with the processors — keeping the
		// overcommit ratio moderate enough that a fetched page
		// normally survives until the faulter's rereference — but is
		// clamped below a single worker's file, so the steady-state
		// reads always fetch from disk even when one worker runs far
		// ahead of the others.
		c.MemFrames = 16 + 8*nCPU
		if c.MemFrames > 8+filePages-2 {
			c.MemFrames = 8 + filePages - 2
		}
		c.WiredFrames = 8
		c.TraceEvents = 1 << 15
	})
	ws, err := workload.NewWorkers(k, nCPU, workload.Files{Prefix: "lat", Quota: 4096})
	check(err)
	// Under the deliberate overcommit the kernel can report a
	// fault loop: the faulter's page was evicted by the other
	// processors before every one of its rereferences. That is the
	// thrashing condition a real user program retries, so the
	// workload does too — the retried services all land in the
	// histograms, which is the point.
	retry := func(f func() error) error {
		for tries := 0; ; tries++ {
			err := f()
			if errors.Is(err, core.ErrFaultLoop) && tries < 25 {
				continue
			}
			return err
		}
	}
	check(workload.Run(sim, ws, func(w *workload.Worker) error {
		for i := 0; i < filePages; i++ {
			if err := retry(func() error {
				return k.Write(w.CPU, w.Proc, w.Segno, i*hw.PageWords, hw.Word(i+1))
			}); err != nil {
				return err
			}
		}
		for r := 0; r < reads; r++ {
			if err := retry(func() error {
				_, err := k.Read(w.CPU, w.Proc, w.Segno, (r%filePages)*hw.PageWords)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}))
	return k
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
			r := diskStorm(nCPU, nPack)
			gain := ""
			if nPack == 1 {
				onePack = r.bottleneck
			} else if r.bottleneck > 0 {
				gain = fmt.Sprintf("  x%.2f vs 1 pack", float64(onePack)/float64(r.bottleneck))
			}
			hitRate := 0.0
			if r.faults > 0 {
				hitRate = float64(r.hits) / float64(r.faults)
			}
			fmt.Printf("    %d CPU %d pack: bottleneck %8d cyc (cpu %8d, device %8d)  read-ahead %3.0f%% of %d faults%s\n",
				nCPU, nPack, r.bottleneck, r.cpu, r.device, 100*hitRate, r.faults, gain)
			rows = append(rows, map[string]any{
				"processors":            nCPU,
				"packs":                 nPack,
				"bottleneck_cycles":     r.bottleneck,
				"busiest_cpu_cycles":    r.cpu,
				"busiest_device_cycles": r.device,
				"faults":                r.faults,
				"prefetch_hits":         r.hits,
				"readahead_hit_rate":    hitRate,
			})
		}
	}
	fmt.Println("    [spreading the storm's files over four packs beats one pack because the per-pack elevators run concurrently]")
	record("P15 disk pipeline fault storm", map[string]any{"per_config": rows})
}

// A diskStormResult is one P15 configuration's scan-phase figures.
type diskStormResult struct {
	bottleneck, cpu, device int64
	faults, hits            int64
}

// diskStorm runs one P15 configuration and returns the scan phase's
// deltas: busiest processor account, busiest pack device account,
// fault count and read-ahead hits.
func diskStorm(nCPU, nPacks int) diskStormResult {
	const filePages = 24
	k := bootKernel(func(c *core.Config) {
		c.Processors = nCPU
		c.Packs = nil
		for i := 0; i < nPacks; i++ {
			c.Packs = append(c.Packs, core.PackSpec{ID: fmt.Sprintf("dsk%c", 'a'+i), Records: 8192})
		}
		c.SpreadPacks = nPacks > 1
		// Memory holds every file plus read-ahead slack: the storm
		// measures the disk pipeline, not eviction thrash.
		c.MemFrames = nCPU*filePages + 64
		c.WiredFrames = 8
	})
	ws, err := workload.NewWorkers(k, nCPU, workload.Files{Prefix: "par", Quota: 4096})
	check(err)
	// Populate: each worker writes its file, then the segment is
	// deactivated so every page lives only on its disk record.
	for _, w := range ws {
		for pg := 0; pg < filePages; pg++ {
			check(k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords, hw.Word(pg+1)))
		}
		e, err := w.Proc.KST().Entry(w.Segno)
		check(err)
		check(k.Segs.Deactivate(e.UID))
	}
	// Snapshot the accounts so only the scan phase is measured.
	cpu0 := make([]int64, nCPU)
	for i := range cpu0 {
		cpu0[i] = k.Meter.CPUCycles(i)
	}
	dev0 := make(map[string]int64)
	for _, id := range k.Vols.Packs() {
		p, err := k.Vols.Pack(id)
		check(err)
		dev0[id] = p.DeviceCycles()
	}
	st0 := k.Frames.Stats()

	check(workload.Run(sim, ws, func(w *workload.Worker) error {
		return workload.Scan(k, w, filePages, 1)
	}))

	var res diskStormResult
	for i := 0; i < nCPU; i++ {
		res.cpu = max(res.cpu, k.Meter.CPUCycles(i)-cpu0[i])
	}
	for _, id := range k.Vols.Packs() {
		p, err := k.Vols.Pack(id)
		check(err)
		res.device = max(res.device, p.DeviceCycles()-dev0[id])
	}
	st := k.Frames.Stats()
	res.faults = st.Faults - st0.Faults
	res.hits = st.PrefetchHits - st0.PrefetchHits
	res.bottleneck = max(res.cpu, res.device)
	return res
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
	const loginUsers = 32
	k := bootKernel(func(c *core.Config) {
		c.Processors = nCPU
		c.ASTPages = (loginUsers+256)/128 + 2
		c.WiredFrames = c.ASTPages + 6
		c.MemFrames = loginUsers + 256 + c.WiredFrames
	})
	node, err := k.AttachFNP(conns, 0)
	check(err)
	terms := node.Terminals

	// The dialog subset: real logins arrive as terminal frames and run
	// the answering service's full admission path.
	svc := answering.New(answering.Split, k.Meter, func(principal string, label aim.Label) (any, error) {
		return k.CreateProcess(principal, label)
	})
	connector := answering.NewConnector(svc, func(proc any) error {
		return k.Procs.Destroy(proc.(*uproc.Process))
	})
	for i := 0; i < loginUsers; i++ {
		check(svc.Register(answering.StormPrincipal(i), "storm-pw", aim.Top))
	}
	for i := 0; i < loginUsers; i++ {
		line := append(answering.EncodeLine("login "+answering.StormPrincipal(i)+" storm-pw"), 0o777)
		check(node.Mux.Deliver(k.CPUs[0], "front-end", netmux.Frame{Channel: i, Payload: line}))
	}
	for sh := 0; sh < terms.Shards(); sh++ {
		terms.Drain(sh, func(d fnp.Delivery) { check(connector.HandleFrame(d.Conn, d.Data)) })
	}
	if got := connector.Stats().Logins; got != loginUsers {
		check(fmt.Errorf("p16: %d logins, want %d", got, loginUsers))
	}

	// The storm: one frame per connection. Each processor delivers its
	// range of connections in bursts of 64 frames and after each burst
	// drains the shards it owns, so a frame waits for at most one burst
	// of each processor; with one processor that is a single deliver,
	// drain, deliver loop. The storm is split at burst boundaries into
	// executor runs of burstsPerRun bursts each, keeping every run well
	// inside the executor's step backstop, and the frames delivered
	// after their shard's last drain are drained at the end.
	const burst, burstsPerRun = 64, 1024
	start := k.Meter.Snapshot()
	payload := []hw.Word{0o101, 0o777}
	per := (conns + nCPU - 1) / nCPU
	for lo := 0; lo < per; lo += burst * burstsPerRun {
		check(sim.Run(k.CPUs, func(cpu *hw.Processor) {
			first, last := cpu.ID*per, min((cpu.ID+1)*per, conns)
			for b := first + lo; b < min(first+lo+burst*burstsPerRun, last); b += burst {
				for id := b; id < min(b+burst, last); id++ {
					check(node.Mux.Deliver(cpu, "front-end", netmux.Frame{Channel: id, Payload: payload}))
				}
				for sh := cpu.ID; sh < terms.Shards(); sh += nCPU {
					terms.Drain(sh, nil)
				}
			}
		}))
	}
	for sh := 0; sh < terms.Shards(); sh++ {
		terms.Drain(sh, nil)
	}
	perConn := k.Meter.Since(start) / int64(conns)
	p50, p99 := terms.LatencyPercentile(50), terms.LatencyPercentile(99)

	// Isolation: flood one line past its credit window without
	// returning credits; its frames drop, counted on it alone, while a
	// neighbor on the same shard keeps its full window.
	slow := loginUsers + 1
	healthy := slow + terms.Shards()
	for i := 0; i < fnp.RingSlots+2; i++ {
		check(node.Mux.Deliver(k.CPUs[0], "front-end", netmux.Frame{Channel: slow, Payload: payload}))
	}
	check(node.Mux.Deliver(k.CPUs[0], "front-end", netmux.Frame{Channel: healthy, Payload: payload}))
	slowSt, healthySt := terms.ConnStats(slow), terms.ConnStats(healthy)
	if slowSt.Drops == 0 || healthySt.Drops != 0 {
		check(fmt.Errorf("p16: isolation broken: slow line dropped %d, healthy neighbor %d", slowSt.Drops, healthySt.Drops))
	}
	st := terms.Stats()
	fmt.Printf("    %7d conns %d cpu: %4d cyc/conn, delivery p50 %7d p99 %7d cyc, %7d frames, slow-line drops %d, healthy neighbor %d\n",
		conns, nCPU, perConn, p50, p99, st.Frames, slowSt.Drops, healthySt.Drops)
	return map[string]any{
		"connections": conns, "processors": nCPU,
		"frames": st.Frames, "delivered": st.Delivered,
		"logins":          loginUsers,
		"slow_conn_drops": slowSt.Drops, "healthy_conn_drops": healthySt.Drops,
		"mux_dropped":           node.Mux.MuxStats().Dropped,
		"cycles_per_connection": perConn,
		"delivery_p50_cycles":   p50,
		"delivery_p99_cycles":   p99,
	}
}
