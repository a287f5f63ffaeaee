package baseline

import (
	"errors"
	"testing"

	"multics/internal/disk"
	"multics/internal/hw"
)

func bootSup(t *testing.T, mutate func(*Config)) *Supervisor {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := BootBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBootValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemFrames = cfg.WiredFrames
	if _, err := BootBaseline(cfg); err == nil {
		t.Error("boot with no pageable memory succeeded")
	}
	cfg = DefaultConfig()
	cfg.Packs = nil
	if _, err := BootBaseline(cfg); err == nil {
		t.Error("boot with no packs succeeded")
	}
}

func TestEndToEndFileIO(t *testing.T) {
	s := bootSup(t, nil)
	if err := s.Create("alice.sys", "home", true); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("alice.sys", "home>data", false); err != nil {
		t.Fatal(err)
	}
	p := s.CreateProcess("alice.sys")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "home>data")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(cpu, p, segno, 5, 1234); err != nil {
		t.Fatal(err)
	}
	w, err := s.Read(cpu, p, segno, 5)
	if err != nil || w != 1234 {
		t.Fatalf("read back %d, %v", w, err)
	}
	if err := s.Write(cpu, p, segno, 4*hw.PageWords+1, 9); err != nil {
		t.Fatal(err)
	}
	w, err = s.Read(cpu, p, segno, 4*hw.PageWords+1)
	if err != nil || w != 9 {
		t.Fatalf("sparse read %d, %v", w, err)
	}
}

func TestPathResolutionBuriedInKernel(t *testing.T) {
	s := bootSup(t, nil)
	if err := s.Create("alice.sys", "hidden", true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetACL("alice.sys", "hidden", map[string]hw.AccessMode{"alice.sys": hw.Read | hw.Write}); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("alice.sys", "hidden>f", false); err != nil {
		t.Fatal(err)
	}
	// The two possible answers: found, or a bare no-access that
	// confirms nothing.
	if _, err := s.ResolvePath("alice.sys", "hidden>f"); err != nil {
		t.Errorf("owner resolve: %v", err)
	}
	_, errMissing := s.ResolvePath("eve.out", "hidden>nothing")
	_, errExisting := s.ResolvePath("eve.out", "hidden>f")
	if !errors.Is(errMissing, ErrNoAccess) {
		t.Errorf("missing = %v", errMissing)
	}
	// eve has no ACL term on f (only alice does), so existing also
	// denies — with the identical answer.
	if !errors.Is(errExisting, ErrNoAccess) {
		t.Errorf("existing = %v", errExisting)
	}
	if errMissing.Error() != errExisting.Error() {
		t.Error("resolver leaks existence information")
	}
}

func TestInterpretiveRetranslationCounted(t *testing.T) {
	s := bootSup(t, nil)
	if err := s.Create("a.x", "f", false); err != nil {
		t.Fatal(err)
	}
	p := s.CreateProcess("a.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(cpu, p, segno, 0, 1); err != nil {
		t.Fatal(err)
	}
	_, _, retrans, _ := s.Stats()
	if retrans == 0 {
		t.Error("no interpretive retranslations recorded; baseline page control must retranslate under the global lock")
	}
}

func TestQuotaWalkClimbsHierarchy(t *testing.T) {
	s := bootSup(t, nil)
	// Deep path: quota dir at the root only, so growth at depth d
	// walks d+1 AST links.
	path := ""
	for _, name := range []string{"a", "b", "c", "d"} {
		if path == "" {
			path = name
		} else {
			path = path + ">" + name
		}
		if err := s.Create("u.x", path, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Create("u.x", "a>b>c>d>f", false); err != nil {
		t.Fatal(err)
	}
	p := s.CreateProcess("u.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "a>b>c>d>f")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(cpu, p, segno, 0, 1); err != nil {
		t.Fatal(err)
	}
	_, _, _, hops := s.Stats()
	if hops < 6 { // f, d, c, b, a, root
		t.Errorf("quota walk hops = %d, want the full upward search", hops)
	}
	// Dynamic designation mid-tree shortens later walks — the old
	// semantics at its most flexible (and costly to implement).
	if err := s.SetQuota("u.x", "a>b", 100); err != nil {
		t.Fatal(err)
	}
	before := s.QuotaWalkHops
	if err := s.Write(cpu, p, segno, hw.PageWords, 1); err != nil {
		t.Fatal(err)
	}
	delta := s.QuotaWalkHops - before
	if delta != 4 { // f, d, c, b
		t.Errorf("post-designation walk = %d hops, want 4", delta)
	}
}

func TestQuotaEnforced(t *testing.T) {
	s := bootSup(t, nil)
	if err := s.Create("u.x", "d", true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetQuota("u.x", "d", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("u.x", "d>f", false); err != nil {
		t.Fatal(err)
	}
	p := s.CreateProcess("u.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "d>f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Write(cpu, p, segno, i*hw.PageWords, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Write(cpu, p, segno, 2*hw.PageWords, 1); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("write beyond quota = %v", err)
	}
}

func TestDeactivationConstrainedByHierarchy(t *testing.T) {
	// The 1974 rule: segment control never deactivates a directory
	// with active inferiors.
	s := bootSup(t, nil)
	if err := s.Create("u.x", "d", true); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("u.x", "d>f", false); err != nil {
		t.Fatal(err)
	}
	p := s.CreateProcess("u.x")
	if _, err := s.Open(p, "d>f"); err != nil {
		t.Fatal(err)
	}
	dirEnt, err := s.ResolvePath("u.x", "d")
	if err != nil {
		t.Fatal(err)
	}
	fileEnt, err := s.ResolvePath("u.x", "d>f")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deactivate(dirEnt.uid); !errors.Is(err, ErrActiveInferiors) {
		t.Fatalf("deactivating a directory with active inferiors: %v", err)
	}
	// Deactivate bottom-up works.
	if err := s.Deactivate(fileEnt.uid); err != nil {
		t.Fatal(err)
	}
	if err := s.Deactivate(dirEnt.uid); err != nil {
		t.Fatal(err)
	}
}

func TestFullPackDirectEntryUpdate(t *testing.T) {
	s := bootSup(t, func(c *Config) {
		c.Packs = c.Packs[:0]
		c.Packs = append(c.Packs, struct {
			ID      string
			Records int
		}{"dska", 4}, struct {
			ID      string
			Records int
		}{"dskb", 64})
	})
	if err := s.Create("u.x", "f", false); err != nil {
		t.Fatal(err)
	}
	p := s.CreateProcess("u.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Write(cpu, p, segno, i*hw.PageWords, hw.Word(10+i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	e, err := s.ResolvePath("u.x", "f")
	if err != nil {
		t.Fatal(err)
	}
	if e.addr.Pack != "dskb" {
		t.Errorf("entry pack = %s; segment control should have updated it in place", e.addr.Pack)
	}
	for i := 0; i < 8; i++ {
		w, err := s.Read(cpu, p, segno, i*hw.PageWords)
		if err != nil || w != hw.Word(10+i) {
			t.Fatalf("page %d = %d, %v", i, w, err)
		}
	}
}

func TestZeroPageReclaim(t *testing.T) {
	s := bootSup(t, func(c *Config) { c.MemFrames = 12 })
	if err := s.Create("u.x", "f", false); err != nil {
		t.Fatal(err)
	}
	p := s.CreateProcess("u.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "f")
	if err != nil {
		t.Fatal(err)
	}
	// Touch a page, never write it, then flood memory. The page is
	// clean and holds a record; the zero scan reclaims it all the same.
	if _, err := s.Read(cpu, p, segno, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		if err := s.Write(cpu, p, segno, i*hw.PageWords, 1); err != nil {
			t.Fatal(err)
		}
	}
	root, err := s.ResolvePath("u.x", "")
	if err != nil {
		t.Fatal(err)
	}
	// 7 non-zero pages charged; the zero page was reclaimed.
	if root.quotaUsed != 7 {
		t.Errorf("quota used = %d, want 7 (zero page reclaimed)", root.quotaUsed)
	}
}

// TestEvictionWritesOnlyModifiedPages: with four pageable frames, two
// four-page files are read back in turn from their records, so every
// eviction takes a clean page and the disk sees no mutation; a page
// stored to after it was read in is still written back.
func TestEvictionWritesOnlyModifiedPages(t *testing.T) {
	s := bootSup(t, func(c *Config) { c.MemFrames = 12 })
	p := s.CreateProcess("u.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	const pages = 4
	var segs [2]int
	for i, name := range []string{"f", "g"} {
		if err := s.Create("u.x", name, false); err != nil {
			t.Fatal(err)
		}
		segno, err := s.Open(p, name)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = segno
		for pg := 0; pg < pages; pg++ {
			if err := s.Write(cpu, p, segno, pg*hw.PageWords, hw.Word(10*i+pg+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := func(i int) {
		t.Helper()
		for pg := 0; pg < pages; pg++ {
			w, err := s.Read(cpu, p, segs[i], pg*hw.PageWords)
			if err != nil || w != hw.Word(10*i+pg+1) {
				t.Fatalf("file %d page %d = %d, %v", i, pg, w, err)
			}
		}
	}
	// Writing g evicted f; one pass over f evicts g's written pages.
	scan(0)
	plan := &disk.FaultPlan{}
	s.Vols.SetFaultPlan(plan)
	_, before, _, _ := s.Stats()
	scan(1)
	scan(0)
	_, after, _, _ := s.Stats()
	if after-before != 2*pages {
		t.Fatalf("clean scans evicted %d pages, want %d", after-before, 2*pages)
	}
	if n := plan.Mutations(); n != 0 {
		t.Errorf("evicting clean pages made %d disk mutations, want 0", n)
	}
	// A store after the read dirties the page: evicting it writes it.
	if err := s.Write(cpu, p, segs[0], 1, 99); err != nil {
		t.Fatal(err)
	}
	scan(1)
	if n := plan.Mutations(); n != 1 {
		t.Errorf("evicting one modified page made %d disk mutations, want 1", n)
	}
	if w, err := s.Read(cpu, p, segs[0], 1); err != nil || w != 99 {
		t.Errorf("modified word reads %d, %v after re-fault, want 99", w, err)
	}
}

func TestCreateValidation(t *testing.T) {
	s := bootSup(t, nil)
	if err := s.Create("u.x", "", true); err == nil {
		t.Error("empty path accepted")
	}
	if err := s.Create("u.x", "a", false); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("u.x", "a", false); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate = %v", err)
	}
	if err := s.Create("u.x", "a>b", false); !errors.Is(err, ErrNoAccess) {
		t.Errorf("create under a file = %v", err)
	}
	if err := s.Create("u.x", "nosuch>b", false); !errors.Is(err, ErrNoAccess) {
		t.Errorf("create under missing dir = %v", err)
	}
	if err := s.SetQuota("u.x", "a", 5); err == nil {
		t.Error("SetQuota on a file succeeded")
	}
}

func TestOneLevelScheduler(t *testing.T) {
	s := bootSup(t, nil)
	for i := 0; i < 3; i++ {
		s.CreateProcess("u.x")
	}
	var order []uint64
	n, err := s.RunQuantum(6, func(p *Process) { order = append(order, p.ID()) })
	if err != nil || n != 6 {
		t.Fatalf("RunQuantum = %d, %v", n, err)
	}
	want := []uint64{1, 2, 3, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSuperficialGraphHasOneLoop(t *testing.T) {
	g := SuperficialGraph()
	cycles := g.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("superficial cycles = %v, want exactly the page/process/segment loop", cycles)
	}
	if len(cycles[0]) != 3 {
		t.Errorf("loop = %v, want page-control, process-control, segment-control", cycles[0])
	}
}

func TestActualGraphIsAThicket(t *testing.T) {
	g := ActualGraph()
	cycles := g.Cycles()
	if len(cycles) == 0 {
		t.Fatal("actual structure reported loop-free")
	}
	// The strongly connected knot should entangle at least page,
	// segment, directory and process control.
	largest := 0
	for _, c := range cycles {
		if len(c) > largest {
			largest = len(c)
		}
	}
	if largest < 4 {
		t.Errorf("largest knot has %d modules, want >= 4: %v", largest, cycles)
	}
	if len(g.Undisciplined()) < 4 {
		t.Errorf("undisciplined edges = %d, want the shared-data thicket", len(g.Undisciplined()))
	}
	if err := g.Verify(); err == nil {
		t.Error("Verify accepted the 1974 structure")
	}
	if _, err := g.Layers(); err == nil {
		t.Error("the 1974 structure is layerable; it must not be")
	}
}

func TestMemoryPressure(t *testing.T) {
	s := bootSup(t, func(c *Config) { c.MemFrames = 12 })
	if err := s.Create("u.x", "f", false); err != nil {
		t.Fatal(err)
	}
	p := s.CreateProcess("u.x")
	cpu := s.CPUs[0]
	s.Attach(cpu, p)
	segno, err := s.Open(p, "f")
	if err != nil {
		t.Fatal(err)
	}
	const pages = 10
	for i := 0; i < pages; i++ {
		if err := s.Write(cpu, p, segno, i*hw.PageWords+i, hw.Word(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		w, err := s.Read(cpu, p, segno, i*hw.PageWords+i)
		if err != nil || w != hw.Word(i+1) {
			t.Fatalf("page %d = %d, %v", i, w, err)
		}
	}
	_, evictions, _, _ := s.Stats()
	if evictions == 0 {
		t.Error("no evictions under pressure")
	}
}

func TestListAndAccessors(t *testing.T) {
	s := bootSup(t, nil)
	if err := s.Create("u.x", "d", true); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"b", "a", "c"} {
		if err := s.Create("u.x", "d>"+n, false); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List("u.x", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("List = %v", names)
	}
	// Listing a file or without read access fails.
	if _, err := s.List("u.x", "d>a"); err == nil {
		t.Error("List of a file succeeded")
	}
	if err := s.SetACL("u.x", "d", map[string]hw.AccessMode{"u.x": hw.Write}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List("u.x", "d"); err == nil {
		t.Error("List without read access succeeded")
	}
	p := s.CreateProcess("u.x")
	if p.DT() == nil {
		t.Error("nil descriptor table")
	}
}
