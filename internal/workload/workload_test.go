package workload_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/salvage"
	"multics/internal/schedsim"
	"multics/internal/uproc"
	"multics/internal/workload"
)

func bootWorkers(t *testing.T, ex uproc.Executor, f workload.Files) (*core.Kernel, []*workload.Worker) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Processors = 2
	cfg.RootQuota = 4096
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workload.NewWorkers(k, ex, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	return k, ws
}

// TestSetupChargedToWorkers: NewWorkers runs each worker's set-up on
// that worker's own processor, so in a traced run under the
// deterministic executor each worker's process is charged the
// self-time of its set-up spans. Off any task they would be charged to
// no process.
func TestSetupChargedToWorkers(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Processors = 2
	cfg.RootQuota = 4096
	cfg.TraceEvents = 1 << 12
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workload.NewWorkers(k, uproc.SimExecutor{Seed: 1977}, 2, workload.Files{Prefix: "su", Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	procs := k.Trace.Snapshot().Procs
	for _, w := range ws {
		if st := procs[w.Proc.ID()]; st.Spans == 0 || st.Cycles == 0 {
			t.Errorf("cpu %d: worker process %d charged %d cycles over %d spans for its set-up, want its set-up spans", w.CPU.ID, w.Proc.ID(), st.Cycles, st.Spans)
		}
	}
}

// readBack runs one scenario — every worker fills its quota-governed
// file, scans it, runs a grow/read/truncate round and records what it
// read — and returns each processor's reads.
func readBack(t *testing.T, ex uproc.Executor) [][]hw.Word {
	t.Helper()
	const pages = 8
	k, ws := bootWorkers(t, ex, workload.Files{Prefix: "rb", Quota: 64})
	got := make([][]hw.Word, len(ws))
	err := workload.Run(ex, ws, func(w *workload.Worker) error {
		base := hw.Word(100 * (w.CPU.ID + 1))
		for pg := 0; pg < pages; pg++ {
			if err := k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords, base+hw.Word(pg)); err != nil {
				return err
			}
		}
		if err := workload.Scan(k, w, pages, base); err != nil {
			return err
		}
		for pg := 0; pg < pages; pg++ {
			v, err := k.Read(w.CPU, w.Proc, w.Segno, pg*hw.PageWords)
			if err != nil {
				return err
			}
			got[w.CPU.ID] = append(got[w.CPU.ID], v)
		}
		return workload.GrowReadTruncate(k, w, 1, pages)
	})
	if err != nil {
		t.Fatalf("%s: %v", ex.Name(), err)
	}
	return got
}

func TestScenarioReadsBackTheSameUnderBothExecutors(t *testing.T) {
	goReads := readBack(t, uproc.GoroutineExecutor{})
	simReads := readBack(t, uproc.SimExecutor{Seed: 1977})
	for cpu := range goReads {
		if len(goReads[cpu]) == 0 || !slices.Equal(goReads[cpu], simReads[cpu]) {
			t.Errorf("cpu %d read back %v under goroutines, %v under schedsim", cpu, goReads[cpu], simReads[cpu])
		}
	}
}

func TestSameSeedSameDecisions(t *testing.T) {
	run := func() []string {
		k, ws := bootWorkers(t, uproc.SimExecutor{Seed: 7}, workload.Files{Prefix: "osc", Pages: 4})
		rec := schedsim.Record(schedsim.Random(7))
		if err := workload.Run(uproc.SimExecutor{Seed: 7, Strategy: rec}, ws, func(w *workload.Worker) error {
			return workload.Oscillate(k, w, 2, 4)
		}); err != nil {
			t.Fatal(err)
		}
		var ds []string
		for _, d := range rec.Decisions() {
			ds = append(ds, d.String())
		}
		return ds
	}
	d1, d2 := run(), run()
	if len(d1) == 0 {
		t.Fatal("the storm took no scheduling decisions")
	}
	if !slices.Equal(d1, d2) {
		t.Errorf("same seed, different schedules: %d vs %d decisions", len(d1), len(d2))
	}
}

func TestBodyErrorComesBackFromRun(t *testing.T) {
	boom := errors.New("boom")
	for _, ex := range []uproc.Executor{uproc.GoroutineExecutor{}, uproc.SimExecutor{Seed: 1}} {
		_, ws := bootWorkers(t, ex, workload.Files{Prefix: "e"})
		ran := make([]bool, len(ws))
		err := workload.Run(ex, ws, func(w *workload.Worker) error {
			ran[w.CPU.ID] = true
			if w.CPU.ID == 1 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("%s: Run returned %v, want the body's error", ex.Name(), err)
		}
		if want := fmt.Sprintf("cpu 1: %v", boom); err == nil || err.Error() != want {
			t.Errorf("%s: Run returned %q, want %q", ex.Name(), err, want)
		}
		if !ran[0] || !ran[1] {
			t.Errorf("%s: bodies ran on %v, want both processors", ex.Name(), ran)
		}
	}
}

// drive boots a kernel shaped by s, drives s on it under ex, requires
// a clean audit afterwards and returns the kernel.
func drive(t *testing.T, s workload.Scenario, ex uproc.Executor) *core.Kernel {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.RootQuota = 10000
	s.Configure(&cfg)
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drive(k, ex); err != nil {
		t.Fatal(err)
	}
	if r := audit.Run(k); !r.Clean() {
		t.Errorf("audit after the storm:\n%s", r)
	}
	return k
}

// TestCatalogueOnGoroutines runs every catalogue scenario at its test
// size on real goroutines, one per processor, and requires a clean
// audit afterwards: the storms must hold up under true concurrency and
// show no data race under -race.
func TestCatalogueOnGoroutines(t *testing.T) {
	for _, s := range workload.Catalogue() {
		t.Run(s.Name, func(t *testing.T) { drive(t, s, uproc.GoroutineExecutor{}) })
	}
}

// TestCatalogueSimSeeds runs every catalogue scenario under the
// deterministic executor at four seeds and requires a clean audit after
// each. A failure names its seed; the run replays exactly. Where the
// run at the first seed had a choice (more than one runnable task at
// some decision), each seed is a different interleaving of the
// processors at the kernel's yield points. Where it had none, no seed
// can change the schedule, and the later seeds must replay the first
// seed's run to the cycle: a difference means something other than the
// schedule reached the kernel.
func TestCatalogueSimSeeds(t *testing.T) {
	for _, s := range workload.Catalogue() {
		t.Run(s.Name, func(t *testing.T) {
			// Seed 1977's choices and cycles, once it has passed.
			choices, cycles := -1, int64(0)
			for seed := int64(1977); seed <= 1980; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					st := &choiceCounter{seed: seed}
					k := drive(t, s, uproc.SimExecutor{Seed: seed, Strategy: st})
					switch {
					case seed == 1977:
						choices, cycles = st.choices, k.Meter.Cycles()
					case choices == 0 && (st.choices != 0 || k.Meter.Cycles() != cycles):
						t.Errorf("seed 1977 had no choice in %d cycles; seed %d made %d choices in %d cycles",
							cycles, seed, st.choices, k.Meter.Cycles())
					}
				})
			}
		})
	}
}

// choiceCounter is the executor's default strategy, Random(seed), that
// also counts the decisions with more than one runnable task. Every
// executor run numbers its decisions from step 0, where the default
// starts a fresh Random(seed); the counter restarts it there too, so
// the schedules are the default's.
type choiceCounter struct {
	seed    int64
	inner   schedsim.Strategy
	choices int
}

func (c *choiceCounter) Choose(d schedsim.Decision) int {
	if d.Step == 0 {
		c.inner = schedsim.Random(c.seed)
	}
	if len(d.Runnable) > 1 {
		c.choices++
	}
	return c.inner.Choose(d)
}

// TestCatalogueCrashPoints crashes every catalogue scenario at its
// disk mutations, through the one crash path (workload.Crash), under
// the deterministic executor. An uncrashed baseline counts the
// mutations of Run and the orderly shutdown after it, and its packs
// must salvage with no repair at all. Then each visited crash point
// reboots on the crashed packs (core.Boot salvages them) and requires
// everything in checkRebooted. The budget (schedsim.EnvBudget, raised
// by the nightly job) splits the mutations into that many equal runs
// and crashes at the middle of each: at every mutation once the budget
// covers them all.
func TestCatalogueCrashPoints(t *testing.T) {
	budget, _ := schedsim.EnvBudget(1, 0)
	ex := uproc.SimExecutor{Seed: 1977}
	for _, s := range workload.Catalogue() {
		t.Run(s.Name, func(t *testing.T) {
			base := &disk.FaultPlan{}
			k := crashAndReboot(t, s, ex, base)
			if len(k.Salvage.Packs) == 0 || !k.Salvage.Clean() {
				t.Errorf("after a clean shutdown, salvage scanned %v and repaired (want some packs, no repair):\n%v", k.Salvage.Packs, k.Salvage)
			}
			checkRebooted(t, s, k, ex)
			mutations := base.Mutations()
			n := min(budget, mutations)
			for i := 1; i <= n; i++ {
				at := (2*i-1)*mutations/(2*n) + 1
				t.Run(fmt.Sprintf("crash-at-%d", at), func(t *testing.T) {
					plan := &disk.FaultPlan{CrashAtMutation: at}
					k := crashAndReboot(t, s, ex, plan)
					if !plan.Crashed() {
						t.Fatalf("plan armed at mutation %d of %d never crashed", at, mutations)
					}
					if len(k.Salvage.Packs) == 0 {
						t.Error("no pack salvaged after a crash")
					}
					checkRebooted(t, s, k, ex)
				})
			}
		})
	}
}

// crashAndReboot takes s through workload.Crash under plan and boots
// the next incarnation of its machine on the packs.
func crashAndReboot(t *testing.T, s workload.Scenario, ex uproc.Executor, plan *disk.FaultPlan) *core.Kernel {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.RootQuota = 10000
	packs, err := workload.Crash(s, cfg, ex, plan)
	if err != nil {
		t.Fatal(err)
	}
	s.Configure(&cfg)
	cfg.Packs, cfg.Mount = nil, packs
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	return k
}

// checkRebooted requires of a kernel rebooted on crashed packs that
// the boot-time salvage made only named repairs, a forced second pass
// repairs nothing, the packs hold together (checkPacks), the audit
// (which includes audit.Balance) is clean, s's contract holds, and s
// runs again on the machine and passes its own checks, with a clean
// audit after.
func checkRebooted(t *testing.T, s workload.Scenario, k *core.Kernel, ex uproc.Executor) {
	t.Helper()
	named := []salvage.RepairKind{salvage.DuplicateEntry, salvage.BadMapEntry, salvage.FreeClaimed,
		salvage.DuplicateClaim, salvage.OrphanFreed, salvage.QuotaRecount}
	for _, f := range k.Salvage.Findings {
		if !slices.Contains(named, f.Kind) {
			t.Errorf("boot-time salvage made an unnamed repair: %v", f)
		}
	}
	rerun, err := salvage.Run(k.Vols, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rerun.Clean() {
		t.Errorf("second salvage pass repaired:\n%v", rerun)
	}
	checkPacks(t, k)
	if r := audit.Run(k); !r.Clean() {
		t.Errorf("audit after the reboot:\n%s", r)
	}
	if s.Contract != nil {
		if err := s.Contract(k.Vols); err != nil {
			t.Errorf("contract broken: %v", err)
		}
	}
	if err := s.Drive(k, ex); err != nil {
		t.Fatalf("rerun on the salvaged machine: %v", err)
	}
	if r := audit.Run(k); !r.Clean() {
		t.Errorf("audit after the rerun:\n%s", r)
	}
}

// checkPacks recomputes, from the packs alone, what salvage promises:
// the free list and the file maps partition every pack's records, each
// quota cell counts exactly the records its segments hold (the cached
// count, for a cell in use), and no uid has two entries.
func checkPacks(t *testing.T, k *core.Kernel) {
	t.Helper()
	governed := make(map[uint64]int)
	entries := make(map[uint64]int)
	for _, id := range k.Vols.Packs() {
		p, err := k.Vols.Pack(id)
		if err != nil {
			t.Fatal(err)
		}
		claims := make(map[disk.RecordAddr]int)
		p.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
			entries[e.UID]++
			governed[e.Gov] += e.Records()
			for pg, fm := range e.Map {
				if fm.State != disk.PageStored {
					continue
				}
				if fm.Record < 0 || int(fm.Record) >= p.Capacity() {
					t.Errorf("pack %s entry %d page %d: record %d out of range", id, idx, pg, fm.Record)
					continue
				}
				claims[fm.Record]++
			}
		})
		free := make(map[disk.RecordAddr]bool)
		for _, r := range p.FreeRecordList() {
			free[r] = true
		}
		for rec := disk.RecordAddr(0); int(rec) < p.Capacity(); rec++ {
			switch n := claims[rec]; {
			case n > 1:
				t.Errorf("pack %s: record %d claimed by %d file maps", id, rec, n)
			case n == 1 && free[rec]:
				t.Errorf("pack %s: record %d both claimed and free", id, rec)
			case n == 0 && !free[rec]:
				t.Errorf("pack %s: record %d allocated but unclaimed", id, rec)
			}
		}
	}
	for uid, n := range entries {
		if n > 1 {
			t.Errorf("segment %d has %d table-of-contents entries", uid, n)
		}
	}
	for _, id := range k.Vols.Packs() {
		p, _ := k.Vols.Pack(id)
		p.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
			if !e.Quota.Valid {
				return
			}
			used := e.Quota.Used
			if cell := (disk.SegAddr{Pack: id, TOC: idx}); k.Cells.Active(cell) {
				_, used, _ = k.Cells.Info(cell)
			}
			if used != governed[e.UID] {
				t.Errorf("quota cell of segment %d counts %d pages, its segments hold %d records", e.UID, used, governed[e.UID])
			}
		})
	}
}
