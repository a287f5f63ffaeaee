package core

import (
	"errors"
	"testing"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/directory"
	"multics/internal/hw"
	"multics/internal/linker"
	"multics/internal/quota"
	"multics/internal/uproc"
)

func boot(t *testing.T, mutate func(*Config)) *Kernel {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	k, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// user builds a process attached to CPU 0.
func user(t *testing.T, k *Kernel, principal string, label aim.Label) (*hw.Processor, *uproc.Process) {
	t.Helper()
	p, err := k.CreateProcess(principal, label)
	if err != nil {
		t.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	return cpu, p
}

func TestBootVerifiesStructure(t *testing.T) {
	k := boot(t, nil)
	if len(k.Graph.Cycles()) != 0 {
		t.Fatal("booted kernel has dependency loops")
	}
	if len(k.Graph.Undisciplined()) != 0 {
		t.Fatalf("undisciplined edges: %v", k.Graph.Undisciplined())
	}
	layers := k.CertificationOrder()
	if len(layers) < 4 {
		t.Errorf("certification order has only %d layers: %v", len(layers), layers)
	}
	if layers[0][0] != ModCoreSeg {
		t.Errorf("bottom layer = %v, want the core segment manager", layers[0])
	}
	if !k.CoreSegs.Sealed() {
		t.Error("core segment allocation not sealed after boot")
	}
}

func TestBootValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemFrames = cfg.WiredFrames
	if _, err := Boot(cfg); err == nil {
		t.Error("boot with no pageable memory succeeded")
	}
	cfg = DefaultConfig()
	cfg.Packs = nil
	if _, err := Boot(cfg); err == nil {
		t.Error("boot with no packs succeeded")
	}
	cfg = DefaultConfig()
	cfg.Packs = []PackSpec{{ID: "dska", Records: 0}}
	if _, err := Boot(cfg); err == nil {
		t.Error("boot with a pack of no records succeeded")
	}
}

func TestEndToEndFileIO(t *testing.T) {
	k := boot(t, nil)
	cpu, p := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateDir(cpu, p, nil, "home", directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, p, []string{"home"}, "data", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"home", "data"})
	if err != nil {
		t.Fatal(err)
	}
	// The write faults through: missing segment, then quota (grow),
	// then succeeds.
	if err := k.Write(cpu, p, segno, 5, 1234); err != nil {
		t.Fatal(err)
	}
	w, err := k.Read(cpu, p, segno, 5)
	if err != nil || w != 1234 {
		t.Fatalf("read back %d, %v", w, err)
	}
	// Sparse write several pages in: more quota faults.
	if err := k.Write(cpu, p, segno, 5*hw.PageWords+1, 9); err != nil {
		t.Fatal(err)
	}
	w, err = k.Read(cpu, p, segno, 5*hw.PageWords+1)
	if err != nil || w != 9 {
		t.Fatalf("sparse read back %d, %v", w, err)
	}
	// Untouched middle pages read as zero after the quota path runs
	// (each first touch is charged).
	w, err = k.Read(cpu, p, segno, 2*hw.PageWords)
	if err != nil || w != 0 {
		t.Fatalf("hole read = %d, %v", w, err)
	}
}

func TestTwoProcessesShareAFile(t *testing.T) {
	k := boot(t, nil)
	cpu, alice := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateFile(cpu, alice, nil, "shared", directory.ACL{
		{Pattern: "alice.sys", Mode: hw.Read | hw.Write},
		{Pattern: "bob.dev", Mode: hw.Read},
	}, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	sa, err := k.OpenPath(cpu, alice, []string{"shared"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Write(cpu, alice, sa, 0, 77); err != nil {
		t.Fatal(err)
	}
	bob, err := k.CreateProcess("bob.dev", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := k.CPUs[1]
	k.Attach(cpu2, bob)
	sb, err := k.OpenPath(cpu2, bob, []string{"shared"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := k.Read(cpu2, bob, sb, 0)
	if err != nil || w != 77 {
		t.Fatalf("bob read = %d, %v", w, err)
	}
	// Bob's grant is read-only: the store traps as an access
	// violation, not a serviceable fault.
	err = k.Write(cpu2, bob, sb, 0, 1)
	if !isFault(err, hw.FaultAccess) {
		t.Errorf("bob write = %v, want access fault", err)
	}
}

func TestQuotaExhaustionSurfacesToUser(t *testing.T) {
	k := boot(t, nil)
	cpu, p := user(t, k, "alice.sys", aim.Bottom)
	dirID, err := k.CreateDir(cpu, p, nil, "small", directory.Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DesignateQuota(cpu, p, dirID, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, p, []string{"small"}, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"small", "f"})
	if err != nil {
		t.Fatal(err)
	}
	// The cell covers the directory's own storage too: creating the
	// file consumed one page of the directory segment, leaving room
	// for two file pages.
	if err := k.Write(cpu, p, segno, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.Write(cpu, p, segno, hw.PageWords, 1); err != nil {
		t.Fatal(err)
	}
	err = k.Write(cpu, p, segno, 2*hw.PageWords, 1)
	if !errors.Is(err, quota.ErrExceeded) {
		t.Fatalf("write beyond quota = %v, want quota exceeded", err)
	}
}

func TestFullPackRelocationEndToEnd(t *testing.T) {
	k := boot(t, func(c *Config) {
		c.Packs = []PackSpec{{ID: "dska", Records: 8}, {ID: "dskb", Records: 64}}
		c.RootQuota = 64
	})
	cpu, p := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateFile(cpu, p, nil, "big", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"big"})
	if err != nil {
		t.Fatal(err)
	}
	// Fill pages until dska overflows; the fault loop must carry
	// the process through the relocation transparently.
	for i := 0; i < 12; i++ {
		if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(100+i)); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	if k.Restores() == 0 {
		t.Error("no relocation restore recorded; the full-pack path never ran")
	}
	// All data survived the move.
	for i := 0; i < 12; i++ {
		w, err := k.Read(cpu, p, segno, i*hw.PageWords)
		if err != nil || w != hw.Word(100+i) {
			t.Fatalf("page %d read = %d, %v", i, w, err)
		}
	}
	// The directory entry now names dskb.
	id, err := k.WalkPath(cpu, p, []string{"big"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := k.Dirs.Status("alice.sys", aim.Bottom, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Addr.Pack != "dskb" {
		t.Errorf("entry pack = %s, want dskb", st.Addr.Pack)
	}
}

func TestMemoryPressureThrashesButWorks(t *testing.T) {
	// More working set than pageable frames: every touch evicts.
	k := boot(t, func(c *Config) {
		c.MemFrames = 12
		c.WiredFrames = 8
	})
	cpu, p := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateFile(cpu, p, nil, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 10
	for i := 0; i < pages; i++ {
		if err := k.Write(cpu, p, segno, i*hw.PageWords+i, hw.Word(i+1)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < pages; i++ {
		w, err := k.Read(cpu, p, segno, i*hw.PageWords+i)
		if err != nil || w != hw.Word(i+1) {
			t.Fatalf("read %d = %d, %v", i, w, err)
		}
	}
	if evictions := k.Frames.Stats().Evictions; evictions == 0 {
		t.Error("no evictions under memory pressure")
	}
}

func TestZeroPageConfinementViolation(t *testing.T) {
	// The paper's confinement example (C1): reading a page of all
	// zeros allocates storage and updates the accounting — a READ
	// causes information to be WRITTEN. A low-labelled observer of
	// the quota count can see a high-labelled reader's activity: a
	// covert channel inherent in the zero-page semantics.
	k := boot(t, func(c *Config) {
		c.MemFrames = 12 // small memory so zero pages get evicted
		c.WiredFrames = 8
	})
	cpu, p := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateFile(cpu, p, nil, "f", directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	// Touch page 0 and never write it; then flood memory so it is
	// evicted as a zero page, releasing its charge.
	if _, err := k.Read(cpu, p, segno, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if err := k.Write(cpu, p, segno, i*hw.PageWords, 1); err != nil {
			t.Fatal(err)
		}
	}
	rootEntry, err := k.Dirs.Status("alice.sys", aim.Bottom, k.Dirs.RootID())
	if err != nil {
		t.Fatal(err)
	}
	_, before, err := k.Cells.Info(rootEntry.Addr)
	if err != nil {
		t.Fatal(err)
	}
	// A pure READ of the zero page forces allocation and accounting.
	if _, err := k.Read(cpu, p, segno, 0); err != nil {
		t.Fatal(err)
	}
	_, after, err := k.Cells.Info(rootEntry.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("read of zero page did not change the quota count (%d -> %d); the confinement violation the paper describes should be observable", before, after)
	}
}

func TestUserRingWalkVsKernelResolve(t *testing.T) {
	// P2's shape: the user-ring walk on the Search primitive is
	// somewhat FASTER than the buried in-kernel resolver, despite
	// the extra gate crossings.
	k := boot(t, nil)
	cpu, p := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateDir(cpu, p, nil, "a", directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateDir(cpu, p, []string{"a"}, "b", directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, p, []string{"a", "b"}, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	path := []string{"a", "b", "f"}
	start := k.Meter.Snapshot()
	idWalk, err := k.WalkPath(cpu, p, path)
	if err != nil {
		t.Fatal(err)
	}
	walkCost := k.Meter.Since(start)
	start = k.Meter.Snapshot()
	idKernel, err := k.ResolveKernel(cpu, p, path)
	if err != nil {
		t.Fatal(err)
	}
	kernelCost := k.Meter.Since(start)
	if idWalk != idKernel {
		t.Fatalf("resolvers disagree: %v vs %v", idWalk, idKernel)
	}
	if walkCost >= kernelCost {
		t.Errorf("user-ring walk cost %d >= in-kernel resolve %d; the paper reports the moved name manager ran somewhat faster", walkCost, kernelCost)
	}
	if walkCost < kernelCost/2 {
		t.Errorf("user-ring walk %d is implausibly cheaper than in-kernel %d; 'somewhat faster', not dramatically", walkCost, kernelCost)
	}
}

func TestAccessDeniedPathsAreUniform(t *testing.T) {
	k := boot(t, nil)
	cpu, alice := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateDir(cpu, alice, nil, "hidden", directory.ACL{{Pattern: "alice.sys", Mode: hw.Read | hw.Write}}, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, alice, []string{"hidden"}, "secret", directory.Owner("alice.sys"), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	eve, err := k.CreateProcess("eve.out", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu1 := k.CPUs[1]
	k.Attach(cpu1, eve)
	// Probing an existing and a nonexistent secret through the
	// walk+open path yields identical answers.
	_, errExisting := k.OpenPath(cpu1, eve, []string{"hidden", "secret"})
	_, errMissing := k.OpenPath(cpu1, eve, []string{"hidden", "nothing"})
	if !errors.Is(errExisting, directory.ErrNoAccess) || !errors.Is(errMissing, directory.ErrNoAccess) {
		t.Fatalf("errors: existing=%v missing=%v", errExisting, errMissing)
	}
	if errExisting.Error() != errMissing.Error() {
		t.Errorf("probe responses differ: %q vs %q", errExisting, errMissing)
	}
}

func TestProcessLifecycleWithScheduler(t *testing.T) {
	k := boot(t, nil)
	var procs []*uproc.Process
	for i := 0; i < 6; i++ {
		p, err := k.CreateProcess("u.x", aim.Bottom)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	// Six quanta on each of the two processors, each from its own run
	// queue of three processes.
	n, err := k.Procs.RunQuantumWith(uproc.SimExecutor{Seed: 1977}, k.CPUs, 6,
		func(_ *hw.Processor, p *uproc.Process) { p.AddCPU(1) })
	if err != nil || n != 12 {
		t.Fatalf("RunQuantumWith = %d, %v", n, err)
	}
	for _, p := range procs {
		if p.CPU() != 2 {
			t.Errorf("process %d got %d quanta", p.ID(), p.CPU())
		}
		if err := k.Procs.Destroy(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSetACLGate(t *testing.T) {
	k := boot(t, nil)
	cpu, alice := user(t, k, "alice.sys", aim.Bottom)
	fileID, err := k.CreateFile(cpu, alice, nil, "f", directory.Owner("alice.sys"), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := k.CreateProcess("bob.dev", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := k.CPUs[1]
	k.Attach(cpu2, bob)
	if _, err := k.OpenPath(cpu2, bob, []string{"f"}); !errors.Is(err, directory.ErrNoAccess) {
		t.Fatalf("bob before grant: %v", err)
	}
	// The canonical transaction: one ACL change, nothing else.
	if err := k.SetACL(cpu, alice, fileID, directory.ACL{
		{Pattern: "alice.sys", Mode: hw.Read | hw.Write},
		{Pattern: "bob.dev", Mode: hw.Read},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.OpenPath(cpu2, bob, []string{"f"}); err != nil {
		t.Errorf("bob after grant: %v", err)
	}
	// Bob cannot change the ACL (no modify on the root for him? he
	// can: root is public rw — the right check is on the containing
	// directory, so bob CAN change it on a public root; verify the
	// restrictive case inside alice's private dir instead).
	privDir, err := k.CreateDir(cpu, alice, nil, "priv", directory.Owner("alice.sys"), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	_ = privDir
	privFile, err := k.CreateFile(cpu, alice, []string{"priv"}, "g", directory.Public(hw.Read), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetACL(cpu2, bob, privFile, directory.Public(hw.Read|hw.Write)); !errors.Is(err, directory.ErrNoAccess) {
		t.Errorf("bob rewrote an ACL in alice's directory: %v", err)
	}
}

func TestRenameAndTruncateGates(t *testing.T) {
	k := boot(t, nil)
	cpu, p := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateFile(cpu, p, nil, "old", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"old"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Rename(cpu, p, nil, "old", "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.OpenPath(cpu, p, []string{"old"}); err == nil {
		t.Error("old name still opens")
	}
	// The existing segment number still works (identifier/uid
	// unchanged by rename).
	if w, err := k.Read(cpu, p, segno, 0); err != nil || w != 1 {
		t.Errorf("read via old segno after rename = %d, %v", w, err)
	}
	rootEntry, err := k.Dirs.Status("alice.sys", aim.Bottom, k.Dirs.RootID())
	if err != nil {
		t.Fatal(err)
	}
	_, before, _ := k.Cells.Info(rootEntry.Addr)
	if err := k.Truncate(cpu, p, segno, 1); err != nil {
		t.Fatal(err)
	}
	_, after, _ := k.Cells.Info(rootEntry.Addr)
	if after != before-2 {
		t.Errorf("truncate released %d pages, want 2", before-after)
	}
	if w, err := k.Read(cpu, p, segno, 0); err != nil || w != 1 {
		t.Errorf("surviving page after truncate = %d, %v", w, err)
	}
	// The truncated region reads back as zero (regrown on touch).
	if w, err := k.Read(cpu, p, segno, hw.PageWords); err != nil || w != 0 {
		t.Errorf("truncated page = %d, %v", w, err)
	}
	// A read-only grant cannot truncate.
	bob, err := k.CreateProcess("bob.dev", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := k.CPUs[1]
	k.Attach(cpu2, bob)
	if err := k.SetACL(cpu, p, mustID(t, k, cpu, p, "new"), directory.ACL{
		{Pattern: "alice.sys", Mode: hw.Read | hw.Write},
		{Pattern: "bob.dev", Mode: hw.Read},
	}); err != nil {
		t.Fatal(err)
	}
	bsegno, err := k.OpenPath(cpu2, bob, []string{"new"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Truncate(cpu2, bob, bsegno, 0); !errors.Is(err, directory.ErrNoAccess) {
		t.Errorf("read-only truncate = %v", err)
	}
}

func mustID(t *testing.T, k *Kernel, cpu *hw.Processor, p *uproc.Process, name string) directory.Identifier {
	t.Helper()
	id, err := k.WalkPath(cpu, p, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// isFault reports whether err is a *hw.Fault of the given kind.
func isFault(err error, kind hw.FaultKind) bool {
	f, ok := err.(*hw.Fault)
	return ok && f.Kind == kind
}

// A destroyed process's connections do not survive into the next
// process that takes its record and descriptor table: deactivating a
// segment the first process had connected leaves the second's
// descriptor at the same segment number, connected to another
// segment, in place.
func TestReusedAddressSpaceKeepsItsConnections(t *testing.T) {
	k := boot(t, nil)
	cpu, a := user(t, k, "a.x", aim.Bottom)
	if _, err := k.CreateFile(cpu, a, nil, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, a, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Write(cpu, a, segno, 0, 1); err != nil {
		t.Fatal(err)
	}
	f, err := a.KST().Entry(segno)
	if err != nil {
		t.Fatal(err)
	}
	dt := a.DT()
	if err := k.Procs.Destroy(a); err != nil {
		t.Fatal(err)
	}
	cpu, b := user(t, k, "b.x", aim.Bottom)
	if b.DT() != dt {
		t.Fatal("the second process did not take the first's descriptor table")
	}
	if _, err := k.CreateFile(cpu, b, nil, "g", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	if got, err := k.OpenPath(cpu, b, []string{"g"}); err != nil || got != segno {
		t.Fatalf("OpenPath(g) = %d, %v; want segment number %d", got, err, segno)
	}
	if err := k.Write(cpu, b, segno, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := k.Segs.Deactivate(f.UID); err != nil {
		t.Fatal(err)
	}
	if sdw, err := dt.Get(segno); err != nil || !sdw.Present {
		t.Errorf("g's descriptor after f's deactivation = %+v, %v; want it connected", sdw, err)
	}
	if got, err := k.Read(cpu, b, segno, 0); err != nil || got != 2 {
		t.Errorf("read of g = %d, %v; want 2", got, err)
	}
}

// TestLedgerAccountNamesMatchServices: the kernel spells the user-ring
// services' ledger accounts itself, since it imports neither service;
// the names must be theirs, or their charges land in unknown modules.
func TestLedgerAccountNamesMatchServices(t *testing.T) {
	if ModLinker != linker.ModuleName || ModAnswering != answering.ModuleName {
		t.Errorf("kernel accounts %q, %q; services %q, %q", ModLinker, ModAnswering, linker.ModuleName, answering.ModuleName)
	}
}
