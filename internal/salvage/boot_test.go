package salvage_test

import (
	"fmt"
	"testing"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/salvage"
	"multics/internal/trace"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// TestBootSalvagesDirtyPacks: a kernel booted on the packs of a
// crashed predecessor salvages them before anything else runs, keeps
// the report, attributes the repairs to the volume-salvager module,
// and then runs the crashed workload again.
func TestBootSalvagesDirtyPacks(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Processors = 1
	s, ex := workload.PackOverflow(64), uproc.SimExecutor{Seed: 1977}
	plan := &disk.FaultPlan{CrashAtMutation: 40}
	packs, err := workload.Crash(s, cfg, ex, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Crashed() {
		t.Fatalf("the workload made only %d disk mutations", plan.Mutations())
	}

	cfg.Packs = nil
	cfg.Mount = packs
	cfg.TraceEvents = 1 << 12
	kern, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The root pack took every mutation up to the crash, so it is
	// dirty for certain; dskb only if a relocation reached it.
	if len(kern.Salvage.Packs) == 0 || kern.Salvage.Packs[0] != "dska" {
		t.Fatalf("boot salvaged packs %v, want at least dska", kern.Salvage.Packs)
	}
	for _, id := range kern.Salvage.Packs {
		p, err := kern.Vols.Pack(id)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Dirty() {
			// Boot itself mutates the packs after salvage (the new
			// root directory), so they are dirty again — which is
			// itself evidence salvage ran before the mutations.
			t.Errorf("pack %s never touched after salvage", id)
		}
	}
	// Salvage repairs, if any, were recorded and legally attributed.
	if unknown := kern.Trace.Unknown(); len(unknown) != 0 {
		t.Errorf("trace events from unregistered modules: %v", unknown)
	}
	repairs := 0
	for _, ev := range kern.Trace.Events() {
		if ev.Kind == trace.EvSalvageRepair {
			repairs++
			if ev.Module != "volume-salvager" {
				t.Errorf("salvage repair attributed to %q", ev.Module)
			}
		}
	}
	if repairs != len(kern.Salvage.Findings) {
		t.Errorf("%d repair events, report has %d findings", repairs, len(kern.Salvage.Findings))
	}

	// The rebooted kernel works: the workload runs again on it.
	if err := s.Drive(kern, ex); err != nil {
		t.Errorf("workload on the rebooted kernel: %v", err)
	}
}

// TestBootWithoutPacksRejected: a configuration with neither new nor
// mounted packs cannot boot.
func TestBootWithoutPacksRejected(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Packs = nil
	cfg.Mount = nil
	if _, err := core.Boot(cfg); err == nil {
		t.Error("boot with no disk packs succeeded")
	}
}

// TestRebootKeepsUIDsUnique: a kernel booted on the packs of an
// earlier one must not hand out again a uid those packs hold. A uid
// used twice makes the next salvage see two entries for one segment
// and drop one of them, the live root's entry among them.
func TestRebootKeepsUIDsUnique(t *testing.T) {
	cfg := core.DefaultConfig()
	packs, err := workload.Crash(workload.PackOverflow(64), cfg, uproc.SimExecutor{Seed: 1977}, &disk.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Packs, cfg.Mount = nil, packs
	kern, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := salvage.Run(kern.Vols, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("forced salvage after a clean reboot repaired:\n%v", rep)
	}
}

// TestCleanShutdownNeedsNoRepair: packs demounted after Shutdown hold
// every count the running kernel had cached, so the next boot's
// salvage repairs nothing. Without Shutdown the written page's charge
// stays in the quota cells cached in primary memory, and the salvage
// must recount them.
func TestCleanShutdownNeedsNoRepair(t *testing.T) {
	for _, shutdown := range []bool{true, false} {
		t.Run(fmt.Sprintf("shutdown=%v", shutdown), func(t *testing.T) {
			cfg := core.DefaultConfig()
			k, err := core.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cpu := k.CPUs[0]
			p, err := k.CreateProcess("shutdown.sys", aim.Bottom)
			if err != nil {
				t.Fatal(err)
			}
			k.Attach(cpu, p)
			dir, err := k.CreateDir(cpu, p, nil, "work", directory.Public(hw.Read|hw.Write), aim.Bottom)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.DesignateQuota(cpu, p, dir, 100); err != nil {
				t.Fatal(err)
			}
			if _, err := k.CreateFile(cpu, p, []string{"work"}, "f", nil, aim.Bottom); err != nil {
				t.Fatal(err)
			}
			segno, err := k.OpenPath(cpu, p, []string{"work", "f"})
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Write(cpu, p, segno, 0, 1977); err != nil {
				t.Fatal(err)
			}
			if shutdown {
				if err := k.Shutdown(); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Packs, cfg.Mount = nil, nil
			for _, id := range k.Vols.Packs() {
				pack, err := k.Vols.Demount(id)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Mount = append(cfg.Mount, pack)
			}
			rebooted, err := core.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := rebooted.Salvage
			recounts := 0
			for _, f := range rep.Findings {
				if f.Kind == salvage.QuotaRecount {
					recounts++
				}
			}
			switch {
			case len(rep.Packs) == 0:
				t.Error("the reboot salvaged no pack")
			case shutdown && !rep.Clean():
				t.Errorf("salvage after Shutdown repaired:\n%v", rep)
			case !shutdown && recounts == 0:
				t.Errorf("salvage without Shutdown recounted no quota cell:\n%v", rep)
			}
		})
	}
}

// TestDeleteQuotaDirectory: deleting an emptied quota directory
// flushes and frees its cell before the directory's table-of-contents
// entry goes, so the delete completes, the name is gone, and the
// orderly shutdown and the next boot's salvage find nothing to do.
func TestDeleteQuotaDirectory(t *testing.T) {
	cfg := core.DefaultConfig()
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cpu := k.CPUs[0]
	p, err := k.CreateProcess("delete.sys", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	k.Attach(cpu, p)
	dir, err := k.CreateDir(cpu, p, nil, "work", directory.Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DesignateQuota(cpu, p, dir, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, p, []string{"work"}, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"work", "f"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Write(cpu, p, segno, 0, 1977); err != nil {
		t.Fatal(err)
	}
	if err := k.Delete(cpu, p, []string{"work"}, "f"); err != nil {
		t.Fatal(err)
	}
	if err := k.Delete(cpu, p, nil, "work"); err != nil {
		t.Fatalf("deleting the emptied quota directory: %v", err)
	}
	if _, err := k.WalkPath(cpu, p, []string{"work"}); err == nil {
		t.Error("the deleted quota directory still resolves")
	}
	if err := k.Shutdown(); err != nil {
		t.Fatalf("shutdown after the delete: %v", err)
	}
	cfg.Packs, cfg.Mount = nil, nil
	for _, id := range k.Vols.Packs() {
		pack, err := k.Vols.Demount(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mount = append(cfg.Mount, pack)
	}
	rebooted, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := rebooted.Salvage; len(rep.Packs) == 0 || !rep.Clean() {
		t.Errorf("salvage after deleting a quota directory:\n%v", rep)
	}
}
