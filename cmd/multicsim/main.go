// Command multicsim boots Kernel/Multics and runs a scripted
// timesharing workload against it, printing a trace of what the
// kernel did: faults serviced, pages moved, quota charged, relocation
// signals dispatched, the per-process top-talkers table from the span
// tracer, and the certification order of the booted structure. Every
// run ends with the invariant audit, and exits 1 if it finds anything.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/profile"
	"multics/internal/schedsim"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// The scripted workload's shape: each user writes and verifies files
// files of pages pages.
const (
	files = 4
	pages = 6
)

func main() {
	users := flag.Int("users", 3, "simulated users")
	packs := flag.Int("packs", 2, "mounted disk packs; more than one spreads new files round-robin so their faults ride separate device queues")
	schedSeed := flag.Int64("sched-seed", 0, "when nonzero, run a multiprocessor storm under the deterministic executor with this schedule seed; a failure prints the seed that replays it. It also seeds the -storm quanta schedule")
	storm := flag.Bool("storm", false, "drive a login/timesharing storm of -users users through the answering service instead of the scripted file workload")
	connections := flag.Int("connections", 0, "when positive, attach the front-end communications processor and storm this many terminal connections through the demultiplexer")
	slowConsumers := flag.Int("slow-consumers", 0, "connections (of -connections) whose consumers never return credits: their lines throttle and drop, everyone else keeps a full window")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run, up to the audit, to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken before the audit to this file")
	flag.Parse()
	// Every numeric flag is checked before the machine boots; a bad
	// one exits 2 and names the flag.
	for _, c := range []struct {
		ok   bool
		rule string
	}{
		{*users >= 0, "-users must not be negative"},
		{*packs >= 1 && *packs <= 26, "-packs must be between 1 and 26"},
		{*connections >= 0, "-connections must not be negative"},
		{*slowConsumers >= 0 && *slowConsumers <= *connections, "-slow-consumers must be between 0 and -connections"},
	} {
		if !c.ok {
			fmt.Fprintln(os.Stderr, "multicsim:", c.rule)
			os.Exit(2)
		}
	}
	stopProfile, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal("profile", err)
	}

	cfg := core.DefaultConfig()
	cfg.RootQuota = 100000
	cfg.Packs = packSpecs(*packs, 8192)
	cfg.SpreadPacks = *packs > 1
	logins, loginRes := workload.Logins(*users, 97)
	if *storm {
		logins.Configure(&cfg)
	}
	// Tracing on: the span layer attributes kernel cycles to the
	// running process for the top-talkers table.
	cfg.TraceEvents = 1 << 15

	k, err := core.Boot(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "multicsim: boot:", err)
		os.Exit(1)
	}
	fmt.Println("Kernel/Multics booted; dependency structure verified loop-free.")
	fmt.Println("Certification order:")
	for i, layer := range k.CertificationOrder() {
		fmt.Printf("    layer %d: %s\n", i, strings.Join(layer, ", "))
	}

	// Every scenario runs every phase under the seeded executor, which
	// binds each processor's task so the top-talkers spans nest per
	// processor. The scripted users and the connection plane are serial:
	// they run on the first processor's task.
	ex := uproc.SimExecutor{Seed: *schedSeed}
	if *storm {
		if err := logins.Drive(k, ex); err != nil {
			fatal("login storm", err)
		}
		fmt.Printf("\nLogin storm: %d logins, %d logouts, %d quanta run, %d blocked, %d woken.\n",
			loginRes.Logins, loginRes.Logouts, loginRes.Quanta, loginRes.Blocked, loginRes.Woken)
	} else {
		if err := workload.FileUsers(*users, files, pages).Drive(k, ex); err != nil {
			fatal("scripted users", err)
		}
		for u := 0; u < *users; u++ {
			fmt.Printf("user %-12s wrote and verified %d files x %d pages\n", fmt.Sprintf("user%d.proj", u), files, pages)
		}
	}

	if *schedSeed != 0 {
		// One oscillating writer per processor under the deterministic
		// executor: the seed fixes the interleaving, and a lost write
		// or a deadlock is reported with the seed that replays it.
		rec := schedsim.Record(schedsim.Random(*schedSeed))
		if err := workload.Oscillation(4, 6).Drive(k, uproc.SimExecutor{Seed: *schedSeed, Strategy: rec}); err != nil {
			fatal(fmt.Sprintf("deterministic storm (-sched-seed %d)", *schedSeed), err)
		}
		fmt.Printf("\nDeterministic storm: %d processors, seed %d, %d scheduling decisions, no invariant violated.\n",
			len(k.CPUs), *schedSeed, len(rec.Decisions()))
	}

	if *connections > 0 {
		// Every line gets a frame per round; the first -slow-consumers
		// lines never return credits, so they throttle and drop while
		// every other line rides through untouched.
		plane, res := workload.ConnectionPlane(*connections, *slowConsumers)
		if err := plane.Drive(k, ex); err != nil {
			fatal("connection plane", err)
		}
		terms := res.Node.Terminals
		st, ms := terms.Stats(), res.Node.Mux.MuxStats()
		fmt.Println("\nConnection plane (front-end processor):")
		fmt.Printf("    connections:              %d over %d shards (%d slow consumers)\n", *connections, terms.Shards(), *slowConsumers)
		fmt.Printf("    frames accepted:          %d of %d offered\n", st.Frames, res.Offered)
		fmt.Printf("    frames dropped:           %d no-credit (%d on the slow lines), %d demux queue-full\n", st.Drops, res.SlowDrops, ms.Dropped)
		fmt.Printf("    delivered / credited:     %d / %d\n", st.Delivered, st.Credits)
		fmt.Printf("    delivery latency:         p50 %d cyc, p99 %d cyc\n", terms.LatencyPercentile(50), terms.LatencyPercentile(99))
		fmt.Printf("    demux:                    %d delivered, %d protocol errors\n", ms.Delivered, ms.ProtocolErrors)
	}

	st := k.Frames.Stats()
	fmt.Println("\nKernel statistics:")
	fmt.Printf("    page faults serviced:     %d\n", st.Faults)
	fmt.Printf("    pages evicted:            %d\n", st.Evictions)
	fmt.Printf("    zero pages reclaimed:     %d\n", st.ZeroEvictions)
	fmt.Printf("    zero-reclaim rescues:     %d\n", st.ZeroRescues)
	fmt.Printf("    quota grow races:         %d\n", k.Cells.Stats().GrowRaces)
	halfBudget, exhausted := k.RetryStats()
	fmt.Printf("    retry pressure:           %d references past half budget, %d exhausted\n", halfBudget, exhausted)
	fmt.Printf("    translation cache:        %d hits, %d misses, %d shootdowns\n", st.AssocHits, st.AssocMisses, st.Shootdowns)
	fmt.Printf("    read-ahead:               %d issued, %d hits, %d dropped, %d stolen\n",
		st.PrefetchIssued, st.PrefetchHits, st.PrefetchDrops, st.PrefetchSteals)
	for _, id := range k.Vols.Packs() {
		if p, err := k.Vols.Pack(id); err == nil {
			enq, depth := p.QueueStats()
			fmt.Printf("    pack %-4s device:         %d cycles, %d queued requests, deepest queue %d\n",
				id, p.DeviceCycles(), enq, depth)
		}
	}
	if st.WriteBackErrors > 0 {
		fmt.Printf("    write-back errors:        %d\n", st.WriteBackErrors)
	}
	fmt.Printf("    relocation restores:      %d\n", k.Restores())
	raised, handled := k.Signals.Stats()
	fmt.Printf("    upward signals:           %d raised, %d handled\n", raised, handled)
	fmt.Printf("    kernel daemon dispatches: %d\n", k.VProcs.Dispatches())
	ss := k.Procs.SchedStats()
	fmt.Printf("    scheduler dispatches:     %d\n", ss.Dispatches)
	fmt.Printf("    ready queue:              deepest %d, %d wakeups\n",
		ss.MaxQueueDepth, ss.Wakeups)
	fmt.Printf("    simulated cycles:         %d\n", k.Meter.Cycles())

	topTalkers(k)
	if err := stopProfile(); err != nil {
		fatal("profile", err)
	}

	fmt.Println("\nPost-workload audit:")
	report := audit.Run(k)
	if !report.Clean() {
		fmt.Print(report)
		os.Exit(1)
	}
	fmt.Println("    clean: every module invariant and the accounting balance hold")
}

// topTalkers prints the processes that cost the kernel the most,
// from the span tracer's per-process accounting: the self-time of
// every span that completed while the process was running on the
// span's processor.
func topTalkers(k *core.Kernel) {
	snap := k.Trace.Snapshot()
	if len(snap.Procs) == 0 {
		return
	}
	pids := make([]uint64, 0, len(snap.Procs))
	for pid := range snap.Procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool {
		a, b := snap.Procs[pids[i]], snap.Procs[pids[j]]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return pids[i] < pids[j]
	})
	const top = 10
	fmt.Println("\nTop talkers (kernel span self-cycles attributed to the running process):")
	for i, pid := range pids {
		if i >= top {
			fmt.Printf("    ... and %d more\n", len(pids)-top)
			break
		}
		who := fmt.Sprintf("pid %d", pid)
		if p, err := k.Procs.Lookup(pid); err == nil {
			who = fmt.Sprintf("%s (pid %d)", p.Principal(), pid)
		}
		pa := snap.Procs[pid]
		fmt.Printf("    %-28s %10d cyc across %d spans\n", who, pa.Cycles, pa.Spans)
	}
}

// packSpecs names n packs dska, dskb, ... each with the given record
// capacity.
func packSpecs(n, records int) []core.PackSpec {
	specs := make([]core.PackSpec, n)
	for i := range specs {
		specs[i] = core.PackSpec{ID: fmt.Sprintf("dsk%c", 'a'+i), Records: records}
	}
	return specs
}

func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "multicsim: %s: %v\n", what, err)
	os.Exit(1)
}
