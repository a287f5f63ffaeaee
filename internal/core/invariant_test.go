package core_test

// Randomized whole-system tests: a seeded pseudo-random workload runs
// against the kernel, a shadow model checks data integrity, and the
// global storage-accounting invariant — every allocated disk record is
// charged to exactly one quota cell — is verified at quiescent points.

import (
	"fmt"
	"math/rand"
	"testing"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/hw"
)

func TestGlobalAccountingInvariant(t *testing.T) {
	const (
		nFiles = 6
		nOps   = 400
	)
	k := boot(t, func(c *core.Config) {
		c.MemFrames = 24 // pressure: zero-page reclaim and eviction happen
		c.WiredFrames = 8
		c.RootQuota = 4096
	})
	p, err := k.CreateProcess("fuzz.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	rng := rand.New(rand.NewSource(1977))

	// A hierarchy with a couple of quota directories.
	if _, err := k.CreateDir(cpu, p, nil, "a", directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	subID, err := k.CreateDir(cpu, p, []string{"a"}, "b", directory.Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DesignateQuota(cpu, p, subID, 512); err != nil {
		t.Fatal(err)
	}
	dirs := [][]string{nil, {"a"}, {"a", "b"}}

	type file struct {
		path  []string
		segno int
		open  bool
	}
	var files []*file
	for i := 0; i < nFiles; i++ {
		dir := dirs[rng.Intn(len(dirs))]
		name := fmt.Sprintf("f%d", i)
		if _, err := k.CreateFile(cpu, p, dir, name, nil, aim.Bottom); err != nil {
			t.Fatal(err)
		}
		files = append(files, &file{path: append(append([]string{}, dir...), name)})
	}
	// Shadow model: file index -> offset -> value.
	shadow := make([]map[int]hw.Word, nFiles)
	for i := range shadow {
		shadow[i] = make(map[int]hw.Word)
	}

	openFile := func(f *file) error {
		if f.open {
			return nil
		}
		segno, err := k.OpenPath(cpu, p, f.path)
		if err != nil {
			return err
		}
		f.segno = segno
		f.open = true
		return nil
	}

	for op := 0; op < nOps; op++ {
		i := rng.Intn(nFiles)
		f := files[i]
		if err := openFile(f); err != nil {
			t.Fatalf("op %d open %v: %v", op, f.path, err)
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // write a random word
			page := rng.Intn(12)
			off := page*hw.PageWords + rng.Intn(hw.PageWords)
			val := hw.Word(rng.Intn(1 << 18))
			if err := k.Write(cpu, p, f.segno, off, val); err != nil {
				t.Fatalf("op %d write %v+%d: %v", op, f.path, off, err)
			}
			shadow[i][off] = val
		case 5, 6, 7: // read back a known word
			if len(shadow[i]) == 0 {
				continue
			}
			var off int
			for o := range shadow[i] {
				off = o
				break
			}
			got, err := k.Read(cpu, p, f.segno, off)
			if err != nil {
				t.Fatalf("op %d read %v+%d: %v", op, f.path, off, err)
			}
			if got != shadow[i][off] {
				t.Fatalf("op %d: %v+%d = %d, shadow says %d", op, f.path, off, got, shadow[i][off])
			}
		case 8: // read a never-written word (zero or hole)
			off := rng.Intn(12 * hw.PageWords)
			if _, ok := shadow[i][off]; ok {
				continue
			}
			got, err := k.Read(cpu, p, f.segno, off)
			if err != nil {
				t.Fatalf("op %d hole read: %v", op, err)
			}
			if got != 0 {
				// Another word on the same page may be set; only
				// fail if the exact offset was never written.
				t.Fatalf("op %d: hole %v+%d = %d", op, f.path, off, got)
			}
		case 9: // deactivate (forces flush; zero pages reclaimed)
			e, err := p.KST().Entry(f.segno)
			if err != nil {
				t.Fatal(err)
			}
			// A known-but-never-referenced segment is not active
			// yet; deactivation only applies to active ones.
			if _, err := k.Segs.Lookup(e.UID); err == nil {
				if err := k.Segs.Deactivate(e.UID); err != nil {
					t.Fatalf("op %d deactivate: %v", op, err)
				}
			}
			f.open = true // segno stays known; reconnection is automatic
		}
		if op%50 == 49 {
			charged, allocated := balance(t, k)
			if charged != allocated {
				t.Fatalf("op %d: %d pages charged vs %d records allocated", op, charged, allocated)
			}
		}
	}
	// Full verification pass at the end.
	for i, f := range files {
		if err := openFile(f); err != nil {
			t.Fatal(err)
		}
		for off, want := range shadow[i] {
			got, err := k.Read(cpu, p, f.segno, off)
			if err != nil {
				t.Fatalf("final read %v+%d: %v", f.path, off, err)
			}
			if got != want {
				t.Fatalf("final %v+%d = %d, want %d", f.path, off, got, want)
			}
		}
	}
	charged, allocated := balance(t, k)
	if charged != allocated {
		t.Fatalf("final balance: %d charged vs %d allocated", charged, allocated)
	}
}
