// Command salvager demonstrates the crash-recovery story end to end:
// it boots a Kernel/Multics instance, runs the catalogue's relocation
// workload (workload.PackOverflow) through the one crash path
// (workload.Crash) with a deterministic crash injected at the Nth disk
// mutation of its run, then reboots a second kernel on the surviving
// packs. The boot-time volume salvager repairs the half-updated tables
// of contents, free lists and quota cells, and the repair report is
// printed along with the salvage events from the kernel trace.
//
// Usage:
//
//	salvager [-crash N] [-records R]
//
// -crash selects the mutation at which the machine halts (default
// 140: at the default size, mutations 124 to 165 fall inside the first
// segment relocation, and a crash there leaves a duplicated
// table-of-contents entry); -records sizes the root pack (default 64,
// small enough that the workload overflows it and relocates segments).
// The same flags always produce the same report: the fault plane
// counts simulated operations, never wall-clock time, and the workload
// runs under the deterministic executor.
package main

import (
	"flag"
	"fmt"
	"os"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/disk"
	"multics/internal/trace"
	"multics/internal/uproc"
	"multics/internal/workload"
)

func main() {
	crashAt := flag.Int("crash", 140, "halt the machine at the Nth disk mutation")
	records := flag.Int("records", 64, "records on the root pack")
	flag.Parse()
	// Both flags are checked before the machine boots; a bad one exits
	// 2 and names the flag.
	for _, c := range []struct {
		ok   bool
		rule string
	}{
		{*crashAt >= 1, "-crash must be at least 1"},
		{*records >= 1, "-records must be at least 1"},
	} {
		if !c.ok {
			fmt.Fprintln(os.Stderr, "salvager:", c.rule)
			os.Exit(2)
		}
	}

	fmt.Println("salvager: deterministic crash, reboot, and volume salvage")
	fmt.Println()

	// First incarnation: boot, commit the files, then grow them until
	// the small root pack overflows and segments relocate, and crash
	// mid-flight.
	cfg := core.DefaultConfig()
	cfg.Processors = 1
	plan := &disk.FaultPlan{CrashAtMutation: *crashAt}
	packs, err := workload.Crash(workload.PackOverflow(*records), cfg, uproc.SimExecutor{Seed: 1977}, plan)
	check(err)
	if !plan.Crashed() {
		fmt.Printf("workload finished before mutation %d (made %d); raise -records pressure or lower -crash\n",
			*crashAt, plan.Mutations())
		os.Exit(1)
	}
	fmt.Printf("first incarnation crashed at disk mutation %d of its workload\n", *crashAt)

	// The packs survive; primary memory does not.
	for _, p := range packs {
		if p.Dirty() {
			fmt.Printf("pack %s demounted dirty: %d of %d records in use\n", p.ID(), p.UsedRecords(), p.Capacity())
		} else {
			fmt.Printf("pack %s demounted clean\n", p.ID())
		}
	}
	fmt.Println()

	// Second incarnation: boot on the survivors. Salvage runs before
	// any manager touches the packs.
	cfg2 := core.DefaultConfig()
	cfg2.Packs = nil
	cfg2.Mount = packs
	cfg2.Processors = 1
	cfg2.TraceEvents = 1 << 12
	k2, err := core.Boot(cfg2)
	check(err)

	fmt.Print(k2.Salvage)
	fmt.Println()

	var events []trace.Event
	for _, ev := range k2.Trace.Events() {
		if ev.Kind == trace.EvSalvageRepair {
			events = append(events, ev)
		}
	}
	fmt.Printf("trace: %d salvage-repair events attributed to the volume salvager\n", len(events))
	if len(events) > 0 {
		fmt.Print(trace.FormatEvents(events))
	}
	fmt.Println()

	// Proof of life: the rebooted hierarchy accepts new segments.
	cpu := k2.CPUs[0]
	p, err := k2.CreateProcess("salvager.sys", aim.Bottom)
	check(err)
	k2.Attach(cpu, p)
	_, err = k2.CreateFile(cpu, p, nil, "after-reboot", nil, aim.Bottom)
	check(err)
	segno, err := k2.OpenPath(cpu, p, []string{"after-reboot"})
	check(err)
	check(k2.Write(cpu, p, segno, 0, 1977))
	w, err := k2.Read(cpu, p, segno, 0)
	check(err)
	fmt.Printf("rebooted kernel is live: wrote and read back %d from a fresh segment\n", w)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "salvager:", err)
		os.Exit(1)
	}
}
