package workload_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/uproc"
	"multics/internal/workload"
)

func bootWorkers(t *testing.T, f workload.Files) (*core.Kernel, []*workload.Worker) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Processors = 2
	cfg.RootQuota = 4096
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workload.NewWorkers(k, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	return k, ws
}

// readBack runs one scenario — every worker fills its quota-governed
// file, scans it, runs a grow/read/truncate round and records what it
// read — and returns each processor's reads.
func readBack(t *testing.T, ex uproc.Executor) [][]hw.Word {
	t.Helper()
	const pages = 8
	k, ws := bootWorkers(t, workload.Files{Prefix: "rb", Quota: 64})
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
		k, ws := bootWorkers(t, workload.Files{Prefix: "osc", Pages: 4})
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
		_, ws := bootWorkers(t, workload.Files{Prefix: "e"})
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

// drive boots a kernel shaped by s, drives s on it under ex and
// requires a clean audit afterwards.
func drive(t *testing.T, s workload.Scenario, ex uproc.Executor) {
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
}

// TestCatalogueOnGoroutines runs every catalogue scenario at its test
// size on real goroutines, one per processor, and requires a clean
// audit afterwards: the storms must hold up under true concurrency and
// show no data race under -race. The scripts (RemoteSegment,
// TraceTour, FileUsers, ConnectionPlane) ignore their executor; they
// are here for the audit alone.
func TestCatalogueOnGoroutines(t *testing.T) {
	for _, s := range workload.Catalogue() {
		t.Run(s.Name, func(t *testing.T) { drive(t, s, uproc.GoroutineExecutor{}) })
	}
}

// TestCatalogueSimSeeds runs every catalogue scenario under the
// deterministic executor at four seeds, each a different interleaving
// of the processors at the kernel's yield points, and requires a clean
// audit after each. A failure names its seed; the run replays exactly.
// The scripts ignore their executor, so every seed would replay the
// same run: they are audited at the first seed only.
func TestCatalogueSimSeeds(t *testing.T) {
	plane, _ := workload.ConnectionPlane(1, 0)
	scripts := map[string]bool{}
	for _, s := range []workload.Scenario{workload.RemoteSegment(), workload.TraceTour(), workload.FileUsers(1, 1, 1), plane} {
		scripts[s.Name] = true
	}
	for _, s := range workload.Catalogue() {
		t.Run(s.Name, func(t *testing.T) {
			last := int64(1980)
			if scripts[s.Name] {
				last = 1977
			}
			for seed := int64(1977); seed <= last; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { drive(t, s, uproc.SimExecutor{Seed: seed}) })
			}
		})
	}
}
