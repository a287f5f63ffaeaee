// Command multicsim boots Kernel/Multics and runs a scripted
// timesharing workload against it, printing a trace of what the
// kernel did: faults serviced, pages moved, quota charged, relocation
// signals dispatched, the per-process top-talkers table from the span
// tracer, and the certification order of the booted structure.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/fnp"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/profile"
	"multics/internal/schedsim"
	"multics/internal/uproc"
	"multics/internal/workload"
)

func main() {
	frames := flag.Int("frames", 96, "primary memory page frames")
	wired := flag.Int("wired", 8, "frames reserved for core segments")
	vprocs := flag.Int("vprocs", 8, "fixed virtual processor count")
	users := flag.Int("users", 3, "simulated users")
	files := flag.Int("files", 4, "files per user")
	pages := flag.Int("pages", 6, "pages written per file")
	packs := flag.Int("packs", 2, "mounted disk packs; more than one spreads new files round-robin so their faults ride separate device queues")
	runAudit := flag.Bool("audit", true, "run the invariant audit after the workload")
	schedSeed := flag.Int64("sched-seed", 0, "when nonzero, run a multiprocessor storm under the deterministic executor with this schedule seed; a failure prints the seed that replays it. It also seeds the -storm quanta schedule")
	storm := flag.Bool("storm", false, "drive a login/timesharing storm of -users users through the answering service instead of the scripted file workload")
	connections := flag.Int("connections", 0, "when positive, attach the front-end communications processor and storm this many terminal connections through the demultiplexer")
	slowConsumers := flag.Int("slow-consumers", 0, "connections (of -connections) whose consumers never return credits: their lines throttle and drop, everyone else keeps a full window")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run, up to the audit, to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken before the audit to this file")
	flag.Parse()
	stopProfile, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal("profile", err)
	}

	cfg := core.DefaultConfig()
	cfg.MemFrames = *frames
	cfg.WiredFrames = *wired
	cfg.VProcs = *vprocs
	cfg.RootQuota = 100000
	if *packs < 1 || *packs > 26 {
		fmt.Fprintln(os.Stderr, "multicsim: -packs must be between 1 and 26")
		os.Exit(2)
	}
	cfg.Packs = packSpecs(*packs, 8192)
	cfg.SpreadPacks = *packs > 1
	if *storm {
		// Scale the machine to the storm: an active-segment entry and
		// a resident state page per logged-in user.
		cfg.ASTPages = (*users+256)/128 + 2
		cfg.WiredFrames = cfg.ASTPages + 6
		if need := *users + 512 + cfg.WiredFrames; cfg.MemFrames < need {
			cfg.MemFrames = need
		}
		cfg.Packs = packSpecs(*packs, 16384)
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

	if *storm {
		if err := runLoginStorm(k, *users, *schedSeed); err != nil {
			fatal("login storm", err)
		}
	}

	for u := 0; !*storm && u < *users; u++ {
		principal := fmt.Sprintf("user%d.proj", u)
		p, err := k.CreateProcess(principal, aim.Bottom)
		if err != nil {
			fatal("create process", err)
		}
		cpu := k.CPUs[u%len(k.CPUs)]
		k.Attach(cpu, p)
		home := fmt.Sprintf("user%d", u)
		if _, err := k.CreateDir(cpu, p, nil, home, directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
			fatal("create home", err)
		}
		for f := 0; f < *files; f++ {
			name := fmt.Sprintf("file%d", f)
			if _, err := k.CreateFile(cpu, p, []string{home}, name, nil, aim.Bottom); err != nil {
				fatal("create file", err)
			}
			segno, err := k.OpenPath(cpu, p, []string{home, name})
			if err != nil {
				fatal("open", err)
			}
			for pg := 0; pg < *pages; pg++ {
				if err := k.Write(cpu, p, segno, pg*hw.PageWords+pg, hw.Word(u*100+f*10+pg)); err != nil {
					fatal("write", err)
				}
			}
			for pg := 0; pg < *pages; pg++ {
				w, err := k.Read(cpu, p, segno, pg*hw.PageWords+pg)
				if err != nil {
					fatal("read", err)
				}
				if w != hw.Word(u*100+f*10+pg) {
					fatal("verify", fmt.Errorf("user %d file %d page %d: got %d", u, f, pg, w))
				}
			}
		}
		fmt.Printf("user %-12s wrote and verified %d files x %d pages\n", principal, *files, *pages)
	}

	if *schedSeed != 0 {
		// One oscillating writer per processor under the deterministic
		// executor: the seed fixes the interleaving, and a lost write
		// or a deadlock is reported with the seed that replays it.
		failed := fmt.Sprintf("deterministic storm (-sched-seed %d)", *schedSeed)
		ws, err := workload.NewWorkers(k, len(k.CPUs), workload.Files{Prefix: "sched"})
		if err != nil {
			fatal(failed, err)
		}
		rec := schedsim.Record(schedsim.Random(*schedSeed))
		if err := workload.Run(uproc.SimExecutor{Seed: *schedSeed, Strategy: rec}, ws, func(w *workload.Worker) error {
			return workload.Oscillate(k, w, 4, 6)
		}); err != nil {
			fatal(failed, err)
		}
		fmt.Printf("\nDeterministic storm: %d processors, seed %d, %d scheduling decisions, no invariant violated.\n",
			len(k.CPUs), *schedSeed, len(rec.Decisions()))
	}

	if *connections > 0 {
		if *slowConsumers < 0 || *slowConsumers > *connections {
			fmt.Fprintln(os.Stderr, "multicsim: -slow-consumers must be between 0 and -connections")
			os.Exit(2)
		}
		if err := runConnectionPlane(k, *connections, *slowConsumers); err != nil {
			fatal("connection plane", err)
		}
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
	fmt.Printf("    scheduler dispatches:     %d (%d steals, %d migrations, %d donations)\n",
		ss.Dispatches, ss.Steals, ss.Migrations, ss.Donations)
	fmt.Printf("    run queues:               %d queues, deepest %d, %d wakeups\n",
		ss.RunQueues, ss.MaxQueueDepth, ss.Wakeups)
	fmt.Printf("    simulated cycles:         %d\n", k.Meter.Cycles())

	topTalkers(k)
	if err := stopProfile(); err != nil {
		fatal("profile", err)
	}

	if *runAudit {
		fmt.Println("\nPost-workload audit:")
		report := audit.Run(k)
		if report.Clean() {
			fmt.Println("    clean: every module invariant and the accounting balance hold")
		} else {
			fmt.Print(report)
			os.Exit(1)
		}
	}
}

// runLoginStorm registers and logs in users simulated users through
// the answering service, timeshares them through rounds of quanta
// with block/wake churn over the real-memory queue on the sharded
// run queues, and logs them all out. The quanta run under the
// deterministic executor with the given schedule seed, which binds
// each processor's task so the per-process spans of the top-talkers
// table nest per processor.
func runLoginStorm(k *core.Kernel, users int, seed int64) error {
	svc := answering.New(answering.Split, k.Meter, func(principal string, label aim.Label) (any, error) {
		return k.CreateProcess(principal, label)
	})
	st, err := svc.RunStorm(answering.StormConfig{
		Users:          users,
		Rounds:         2,
		QuantaPerRound: 2*users/len(k.CPUs) + 32,
		BlockEvery:     97,
	}, k.StormOps(uproc.SimExecutor{Seed: seed}, k.CPUs))
	if err != nil {
		return err
	}
	fmt.Printf("\nLogin storm: %d logins, %d logouts, %d quanta run, %d blocked, %d woken.\n",
		st.Logins, st.Logouts, st.Quanta, st.Blocked, st.Woken)
	return nil
}

// runConnectionPlane attaches the front-end communications processor
// and storms frames through it: every connection receives a frame per
// round, consumers drain the sharded table and return credits — except
// the first `slow` lines, whose consumers never credit. Those lines
// exhaust their windows and drop; every other line rides through
// untouched. The statistics block shows the accounting.
func runConnectionPlane(k *core.Kernel, conns, slow int) error {
	node, err := k.AttachFNP(conns, 0)
	if err != nil {
		return err
	}
	terms := node.Terminals
	const rounds = fnp.RingSlots + 2 // enough to overflow an uncredited window
	for r := 0; r < rounds; r++ {
		for id := 0; id < conns; id++ {
			f := netmux.Frame{Channel: id, Payload: []hw.Word{hw.Word(r + 1), 0o777}}
			if err := node.Mux.Deliver(k.CPUs[0], "front-end", f); err != nil {
				return err
			}
		}
		for sh := 0; sh < terms.Shards(); sh++ {
			for {
				d, ok := terms.Next(sh)
				if !ok {
					break
				}
				if d.Conn >= slow {
					terms.Credit(d.Conn)
				}
			}
		}
	}
	st := terms.Stats()
	ms := node.Mux.MuxStats()
	var slowDrops int64
	for id := 0; id < slow; id++ {
		slowDrops += terms.ConnStats(id).Drops
	}
	fmt.Println("\nConnection plane (front-end processor):")
	fmt.Printf("    connections:              %d over %d shards (%d slow consumers)\n", conns, terms.Shards(), slow)
	fmt.Printf("    frames accepted:          %d of %d offered\n", st.Frames, int64(conns)*rounds)
	fmt.Printf("    frames dropped:           %d no-credit (%d on the slow lines), %d demux queue-full\n", st.Drops, slowDrops, ms.Dropped)
	fmt.Printf("    delivered / credited:     %d / %d\n", st.Delivered, st.Credits)
	fmt.Printf("    delivery latency:         p50 %d cyc, p99 %d cyc\n", terms.LatencyPercentile(50), terms.LatencyPercentile(99))
	fmt.Printf("    demux:                    %d delivered, %d protocol errors\n", ms.Delivered, ms.ProtocolErrors)
	return nil
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
