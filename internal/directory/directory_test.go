package directory

import (
	"errors"
	"testing"

	"multics/internal/aim"
	"multics/internal/coreseg"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/knownseg"
	"multics/internal/pageframe"
	"multics/internal/quota"
	"multics/internal/segment"
	"multics/internal/upsignal"
	"multics/internal/vproc"
)

const (
	alice = Principal("alice.sys")
	bob   = Principal("bob.dev")
	eve   = Principal("eve.out")
)

type fixture struct {
	mem     *hw.Memory
	meter   *hw.CostMeter
	vols    *disk.Volumes
	cells   *quota.Manager
	segs    *segment.Manager
	ksm     *knownseg.Manager
	signals *upsignal.Dispatcher
	m       *Manager
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	meter := &hw.CostMeter{}
	mem := hw.NewMemory(3 + 32)
	cm, err := coreseg.NewManager(mem, 3, meter)
	if err != nil {
		t.Fatal(err)
	}
	states, _ := cm.Allocate("vp-states", 4*vproc.StateWords)
	qtable, _ := cm.Allocate("quota-table", hw.PageWords)
	ast, _ := cm.Allocate("ast", hw.PageWords)
	vps, err := vproc.NewManager(4, states, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vps.BindKernel(pageframe.PageWriterModule); err != nil {
		t.Fatal(err)
	}
	frames, err := pageframe.NewManager(mem, cm.FirstPageableFrame(), vps, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	vols := disk.NewVolumes(meter, nil)
	if _, err := vols.AddPack("dska", 256); err != nil {
		t.Fatal(err)
	}
	if _, err := vols.AddPack("dskb", 256); err != nil {
		t.Fatal(err)
	}
	cells, err := quota.NewManager(vols, qtable, meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := segment.NewManager(vols, frames, cells, ast, meter)
	if err != nil {
		t.Fatal(err)
	}
	signals := upsignal.NewDispatcher(nil)
	ksm := knownseg.NewManager(segs, signals, meter)
	m, err := NewManager(segs, ksm, cells, signals, meter, Config{
		RootPack: "dska", RootQuota: 200, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: mem, meter: meter, vols: vols, cells: cells, segs: segs, ksm: ksm, signals: signals, m: m}
}

func TestCreateSearchInitiate(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	dirID, err := f.m.Create(alice, aim.Bottom, root, "home", true, Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	fileID, err := f.m.Create(alice, aim.Bottom, dirID, "notes", false, Owner(alice), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	// Search finds them.
	got, err := f.m.Search(alice, aim.Bottom, root, "home")
	if err != nil || got != dirID {
		t.Errorf("Search(home) = %v, %v", got, err)
	}
	got, err = f.m.Search(alice, aim.Bottom, dirID, "notes")
	if err != nil || got != fileID {
		t.Errorf("Search(notes) = %v, %v", got, err)
	}
	// A searchable directory reports a genuinely missing name.
	if _, err := f.m.Search(alice, aim.Bottom, dirID, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Search(ghost) = %v", err)
	}
	// Initiate grants the owner full access.
	g, err := f.m.Initiate(alice, aim.Bottom, fileID)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Access.Has(hw.Read|hw.Write) || g.IsDir || !g.HasCell {
		t.Errorf("grant = %+v", g)
	}
	// The governing cell is the root's (no deeper quota dirs).
	m, err := f.m.Status(alice, aim.Bottom, f.m.RootID())
	if err != nil {
		t.Fatal(err)
	}
	if g.Cell != m.Addr {
		t.Errorf("cell = %v, want root's %v", g.Cell, m.Addr)
	}
	// Access is determined entirely by the file's own ACL: bob has
	// none.
	if _, err := f.m.Initiate(bob, aim.Bottom, fileID); !errors.Is(err, ErrNoAccess) {
		t.Errorf("bob Initiate = %v", err)
	}
	// List requires read access.
	names, err := f.m.List(alice, aim.Bottom, dirID)
	if err != nil || len(names) != 1 || names[0] != "notes" {
		t.Errorf("List = %v, %v", names, err)
	}
}

func TestCreateValidation(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	if _, err := f.m.Create(alice, aim.Bottom, root, "", false, nil, aim.Bottom); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := f.m.Create(alice, aim.Bottom, Identifier(12345), "x", false, nil, aim.Bottom); !errors.Is(err, ErrNoAccess) {
		t.Error("create under bogus id succeeded")
	}
	id, err := f.m.Create(alice, aim.Bottom, root, "a", false, nil, aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Create(alice, aim.Bottom, root, "a", false, nil, aim.Bottom); !errors.Is(err, ErrExists) {
		t.Error("duplicate name accepted")
	}
	// Creating under a file is rejected.
	if _, err := f.m.Create(alice, aim.Bottom, id, "x", false, nil, aim.Bottom); !errors.Is(err, ErrNotDir) {
		t.Error("create under a file succeeded")
	}
	// A label that does not dominate the directory's is rejected.
	low := aim.Label{Level: aim.Unclassified}
	// (Created while operating at Bottom: writing the unclassified
	// root at a higher label would itself be a write-down.)
	secretDir, err := f.m.Create(alice, aim.Bottom, root, "vault", true, Public(hw.Read|hw.Write), aim.Label{Level: aim.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Create(alice, aim.Label{Level: aim.Secret}, secretDir, "downgrade", false, nil, low); err == nil {
		t.Error("label below containing directory accepted")
	}
}

func TestModifyRequiresWriteAndAIM(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	// Directory writable only by alice.
	dirID, err := f.m.Create(alice, aim.Bottom, root, "mine", true, ACL{{Pattern: string(alice), Mode: hw.Read | hw.Write}, {Pattern: "*", Mode: hw.Read}}, aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Create(bob, aim.Bottom, dirID, "intruder", false, nil, aim.Bottom); !errors.Is(err, ErrNoAccess) {
		t.Errorf("bob create = %v", err)
	}
	// AIM: a secret-cleared alice cannot write an unclassified
	// directory (no write down).
	if _, err := f.m.Create(alice, aim.Label{Level: aim.Secret}, dirID, "leak", false, nil, aim.Label{Level: aim.Secret}); !errors.Is(err, ErrNoAccess) {
		t.Errorf("write-down create = %v", err)
	}
}

func TestBrattInaccessibleDirectory(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	// A directory eve cannot read, containing a file eve CAN use.
	hidden, err := f.m.Create(alice, aim.Bottom, root, "hidden", true, ACL{{Pattern: string(alice), Mode: hw.Read | hw.Write}}, aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	fileID, err := f.m.Create(alice, aim.Bottom, hidden, "public-file", false, Public(hw.Read), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	// Eve searches the inaccessible directory: she gets identifiers
	// whether or not the name exists.
	gotReal, err := f.m.Search(eve, aim.Bottom, hidden, "public-file")
	if err != nil {
		t.Fatalf("search for existing name: %v", err)
	}
	gotMyth, err := f.m.Search(eve, aim.Bottom, hidden, "no-such-file")
	if err != nil {
		t.Fatalf("search for missing name: %v", err)
	}
	if gotMyth == 0 || gotReal == 0 {
		t.Error("zero identifier returned")
	}
	// The real one is real: eve can initiate the file she is
	// entitled to, reached through a directory she may not read.
	if gotReal != fileID {
		t.Errorf("identifier for existing entry = %v, want real %v", gotReal, fileID)
	}
	g, err := f.m.Initiate(eve, aim.Bottom, gotReal)
	if err != nil {
		t.Fatalf("initiate through inaccessible path: %v", err)
	}
	if !g.Access.Has(hw.Read) {
		t.Errorf("grant = %+v", g)
	}
	// The mythical one behaves like a real one in searches…
	deeper, err := f.m.Search(eve, aim.Bottom, gotMyth, "anything")
	if err != nil {
		t.Fatalf("search of mythical directory: %v", err)
	}
	if deeper == 0 {
		t.Error("mythical directory search returned zero")
	}
	// …and is stable: probing twice yields the same identifier.
	again, err := f.m.Search(eve, aim.Bottom, hidden, "no-such-file")
	if err != nil || again != gotMyth {
		t.Errorf("mythical identifier not stable: %v vs %v", again, gotMyth)
	}
	// Using it ends in exactly the same answer as a forbidden real
	// object: "no access".
	_, errMyth := f.m.Initiate(eve, aim.Bottom, gotMyth)
	privID, err := f.m.Search(alice, aim.Bottom, hidden, "public-file")
	if err != nil {
		t.Fatal(err)
	}
	_ = privID
	privateFile, err := f.m.Create(alice, aim.Bottom, hidden, "private-file", false, Owner(alice), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	realForbidden, err := f.m.Search(eve, aim.Bottom, hidden, "private-file")
	if err != nil {
		t.Fatal(err)
	}
	if realForbidden != privateFile {
		t.Errorf("expected real id for existing entry")
	}
	_, errReal := f.m.Initiate(eve, aim.Bottom, realForbidden)
	if !errors.Is(errMyth, ErrNoAccess) || !errors.Is(errReal, ErrNoAccess) {
		t.Errorf("errors differ: mythical %v, real %v", errMyth, errReal)
	}
	if errMyth.Error() != errReal.Error() {
		t.Errorf("error texts distinguish mythical from real: %q vs %q", errMyth, errReal)
	}
}

func TestSearchNonexistentDirectoryYieldsIdentifiers(t *testing.T) {
	// "It will even return an identifier if asked to search a
	// non-existent directory."
	f := newFixture(t)
	bogus := Identifier(0xdeadbeef)
	id, err := f.m.Search(eve, aim.Bottom, bogus, "x")
	if err != nil || id == 0 {
		t.Fatalf("Search of nonexistent dir = %v, %v", id, err)
	}
	id2, err := f.m.Search(eve, aim.Bottom, id, "y")
	if err != nil || id2 == 0 {
		t.Fatalf("chained mythical search = %v, %v", id2, err)
	}
}

func TestSearchFileAsDirectory(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	fileID, err := f.m.Create(alice, aim.Bottom, root, "plain", false, Owner(alice), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	// The owner learns the truth.
	if _, err := f.m.Search(alice, aim.Bottom, fileID, "x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("owner search of file = %v", err)
	}
	// A stranger cannot distinguish it from an inaccessible
	// directory.
	id, err := f.m.Search(eve, aim.Bottom, fileID, "x")
	if err != nil || id == 0 {
		t.Errorf("stranger search of file = %v, %v", id, err)
	}
}

func TestAIMFiltersGrantedModes(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	secret := aim.Label{Level: aim.Secret}
	fileID, err := f.m.Create(alice, aim.Bottom, root, "intel", false, Public(hw.Read|hw.Write), secret)
	if err != nil {
		t.Fatal(err)
	}
	// An unclassified process gets nothing despite the permissive
	// ACL (no read up; no write up either? write up is allowed).
	g, err := f.m.Initiate(bob, aim.Bottom, fileID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Access.Has(hw.Read) {
		t.Error("read up granted")
	}
	if !g.Access.Has(hw.Write) {
		t.Error("write up (blind append) denied") // *-property permits it
	}
	// A secret process gets both.
	g, err = f.m.Initiate(bob, secret, fileID)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Access.Has(hw.Read | hw.Write) {
		t.Errorf("secret process grant = %v", g.Access)
	}
	// A top-secret process may read but not write (no write down).
	ts := aim.Label{Level: aim.TopSecret}
	g, err = f.m.Initiate(bob, ts, fileID)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Access.Has(hw.Read) || g.Access.Has(hw.Write) {
		t.Errorf("top-secret grant = %v", g.Access)
	}
}

func TestDelete(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	dirID, err := f.m.Create(alice, aim.Bottom, root, "d", true, Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Create(alice, aim.Bottom, dirID, "f", false, nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	// Non-empty directory cannot be deleted.
	if err := f.m.Delete(alice, aim.Bottom, root, "d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("delete non-empty = %v", err)
	}
	if err := f.m.Delete(alice, aim.Bottom, dirID, "f"); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Delete(alice, aim.Bottom, root, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Search(alice, aim.Bottom, root, "d"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted dir still found: %v", err)
	}
	if err := f.m.Delete(alice, aim.Bottom, root, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete of missing name = %v", err)
	}
	// Strangers cannot delete.
	if _, err := f.m.Create(alice, aim.Bottom, root, "keep", false, nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	rootEntry, _ := f.m.Status(alice, aim.Bottom, root)
	_ = rootEntry
}

func TestSetACL(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	fileID, err := f.m.Create(alice, aim.Bottom, root, "f", false, Owner(alice), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	// Grant bob access: the canonical Multics transaction — one ACL
	// change on the file, nothing else.
	if err := f.m.SetACL(alice, aim.Bottom, fileID, ACL{
		{Pattern: string(alice), Mode: hw.Read | hw.Write},
		{Pattern: string(bob), Mode: hw.Read},
	}); err != nil {
		t.Fatal(err)
	}
	g, err := f.m.Initiate(bob, aim.Bottom, fileID)
	if err != nil || !g.Access.Has(hw.Read) {
		t.Errorf("bob after grant = %+v, %v", g, err)
	}
	// The root's ACL cannot be replaced.
	if err := f.m.SetACL(alice, aim.Bottom, root, Public(hw.Read)); !errors.Is(err, ErrNoAccess) {
		t.Errorf("SetACL on root = %v", err)
	}
	if err := f.m.SetACL(alice, aim.Bottom, Identifier(999), nil); !errors.Is(err, ErrNoAccess) {
		t.Errorf("SetACL on bogus id = %v", err)
	}
}

func TestDesignateQuotaChildlessRule(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	dirID, err := f.m.Create(alice, aim.Bottom, root, "proj", true, Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Create(alice, aim.Bottom, dirID, "child", false, nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	// The paper's semantics change: designation requires a
	// childless directory.
	if err := f.m.DesignateQuota(alice, aim.Bottom, dirID, 50); !errors.Is(err, ErrHasChildren) {
		t.Fatalf("designation with children = %v", err)
	}
	if err := f.m.Delete(alice, aim.Bottom, dirID, "child"); err != nil {
		t.Fatal(err)
	}
	if err := f.m.DesignateQuota(alice, aim.Bottom, dirID, 50); err != nil {
		t.Fatalf("designation of childless dir: %v", err)
	}
	if err := f.m.DesignateQuota(alice, aim.Bottom, dirID, 50); err == nil {
		t.Error("double designation succeeded")
	}
	limit, used, err := f.m.QuotaInfo(dirID)
	if err != nil || limit != 50 {
		t.Fatalf("QuotaInfo = %d/%d, %v", used, limit, err)
	}
	// New children charge the new cell, not the root's.
	fileID, err := f.m.Create(alice, aim.Bottom, dirID, "data", false, nil, aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.m.Initiate(alice, aim.Bottom, fileID)
	if err != nil {
		t.Fatal(err)
	}
	dirEntry, err := f.m.Status(alice, aim.Bottom, dirID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cell != dirEntry.Addr {
		t.Errorf("governing cell = %v, want %v", g.Cell, dirEntry.Addr)
	}
}

func TestQuotaChargeTransferOnDesignation(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	rootEntry, _ := f.m.Status(alice, aim.Bottom, root)
	dirID, err := f.m.Create(alice, aim.Bottom, root, "d", true, Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	// Give the directory some storage of its own: a child entry
	// grows its segment; deleting the child leaves the page (and
	// the directory childless, so designation is legal).
	if _, err := f.m.Create(alice, aim.Bottom, dirID, "x", false, nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Delete(alice, aim.Bottom, dirID, "x"); err != nil {
		t.Fatal(err)
	}
	_, rootUsedBefore, err := f.cells.Info(rootEntry.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if rootUsedBefore == 0 {
		t.Fatal("directory creation charged nothing to root")
	}
	if err := f.m.DesignateQuota(alice, aim.Bottom, dirID, 50); err != nil {
		t.Fatal(err)
	}
	// The directory's own page moved from the root's cell to its
	// own.
	_, rootUsedAfter, _ := f.cells.Info(rootEntry.Addr)
	_, dirUsed, err := f.m.QuotaInfo(dirID)
	if err != nil {
		t.Fatal(err)
	}
	if rootUsedAfter >= rootUsedBefore {
		t.Errorf("root used %d -> %d, want a release", rootUsedBefore, rootUsedAfter)
	}
	if dirUsed != rootUsedBefore-rootUsedAfter {
		t.Errorf("charge moved %d pages but cell shows %d", rootUsedBefore-rootUsedAfter, dirUsed)
	}
}

func TestResolvePathKernelRevealsNothing(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	hidden, err := f.m.Create(alice, aim.Bottom, root, "hidden", true, ACL{{Pattern: string(alice), Mode: hw.Read | hw.Write}}, aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	fileID, err := f.m.Create(alice, aim.Bottom, hidden, "f", false, Public(hw.Read), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	// Found: eve reaches the public file through the hidden dir.
	got, err := f.m.ResolvePathKernel(eve, aim.Bottom, []string{"hidden", "f"})
	if err != nil || got != fileID {
		t.Errorf("resolve = %v, %v", got, err)
	}
	// All failures are the same bare answer.
	_, errMissingDir := f.m.ResolvePathKernel(eve, aim.Bottom, []string{"nosuch", "f"})
	_, errMissingFile := f.m.ResolvePathKernel(eve, aim.Bottom, []string{"hidden", "nosuch"})
	privID, err := f.m.Create(alice, aim.Bottom, hidden, "priv", false, Owner(alice), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	_ = privID
	_, errForbidden := f.m.ResolvePathKernel(eve, aim.Bottom, []string{"hidden", "priv"})
	for i, e := range []error{errMissingDir, errMissingFile, errForbidden} {
		if !errors.Is(e, ErrNoAccess) {
			t.Errorf("failure %d = %v, want bare no-access", i, e)
		}
	}
	if errMissingDir.Error() != errForbidden.Error() {
		t.Error("kernel resolver distinguishes missing from forbidden")
	}
}

func TestRelocationNoticeUpdatesEntryAndRestoresProcess(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	fileID, err := f.m.Create(alice, aim.Bottom, root, "f", false, nil, aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := f.m.Status(alice, aim.Bottom, fileID)
	restored := ""
	f.m.Restore = func(state any) { restored = state.(string) }
	newAddr := disk.SegAddr{Pack: "dskb", TOC: 17}
	if err := f.signals.Raise(upsignal.Signal{
		Target: knownseg.RelocationTarget,
		Args:   knownseg.RelocationNotice{UID: entry.UID, NewAddr: newAddr, SavedState: "resume-me"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.signals.Dispatch(); err != nil {
		t.Fatal(err)
	}
	after, _ := f.m.Status(alice, aim.Bottom, fileID)
	if after.Addr != newAddr {
		t.Errorf("entry addr = %v, want %v", after.Addr, newAddr)
	}
	if restored != "resume-me" {
		t.Errorf("process state not restored: %q", restored)
	}
}

func TestStatusRequiresParentRead(t *testing.T) {
	f := newFixture(t)
	root := f.m.RootID()
	hidden, err := f.m.Create(alice, aim.Bottom, root, "hidden", true, ACL{{Pattern: string(alice), Mode: hw.Read | hw.Write}}, aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	fileID, err := f.m.Create(alice, aim.Bottom, hidden, "f", false, Public(hw.Read), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Status(eve, aim.Bottom, fileID); !errors.Is(err, ErrNoAccess) {
		t.Errorf("Status through unreadable dir = %v", err)
	}
	if _, err := f.m.Status(alice, aim.Bottom, fileID); err != nil {
		t.Errorf("owner Status = %v", err)
	}
}

func TestDirectoriesOccupyQuota(t *testing.T) {
	// Directory growth is charged storage: creating many entries
	// consumes pages of the directory segment against the governing
	// cell.
	f := newFixture(t)
	root := f.m.RootID()
	rootEntry, _ := f.m.Status(alice, aim.Bottom, root)
	_, before, err := f.cells.Info(rootEntry.Addr)
	if err != nil {
		t.Fatal(err)
	}
	// 1024/32 = 32 entries per page; create 40 to cross a page
	// boundary.
	dirID, err := f.m.Create(alice, aim.Bottom, root, "big", true, Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		name := string(rune('a'+i/26)) + string(rune('a'+i%26))
		if _, err := f.m.Create(alice, aim.Bottom, dirID, name, false, nil, aim.Bottom); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	_, after, _ := f.cells.Info(rootEntry.Addr)
	if after < before+2 {
		t.Errorf("root cell used %d -> %d; a 40-entry directory should consume at least 2 pages", before, after)
	}
}
