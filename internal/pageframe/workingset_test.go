package pageframe

import (
	"testing"

	"multics/internal/hw"
)

func TestSampleWorkingSets(t *testing.T) {
	f := newFixture(t, 6)
	ptA := hw.NewPageTable(tablePages)
	ptB := hw.NewPageTable(tablePages)
	// Segment 1: three resident pages; segment 2: two.
	for i := 0; i < 3; i++ {
		if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: ptA, Page: i, Pack: f.pack}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := f.m.AddPage(PageReq{UID: 2, PT: ptB, Page: i, Pack: f.pack}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Everything was just referenced (AddPage sets Used).
	sets, total := f.m.SampleWorkingSets()
	if sets[1] != 3 || sets[2] != 2 || total != 5 {
		t.Fatalf("first sample = %v (total %d)", sets, total)
	}
	// The sample cleared the bits: an idle interval shows empty
	// working sets even though the pages are resident.
	sets, total = f.m.SampleWorkingSets()
	if total != 0 || len(sets) != 0 {
		t.Fatalf("idle sample = %v (total %d)", sets, total)
	}
	// Re-reference one page of segment 1 only.
	if _, err := ptA.Update(1, func(d *hw.PTW) { d.Used = true }); err != nil {
		t.Fatal(err)
	}
	sets, total = f.m.SampleWorkingSets()
	if sets[1] != 1 || sets[2] != 0 || total != 1 {
		t.Fatalf("post-reference sample = %v (total %d)", sets, total)
	}
}

func TestWorkingSetSurvivesEviction(t *testing.T) {
	// Evicted pages leave the working set naturally: only resident
	// frames are sampled.
	f := newFixture(t, 1)
	pt := hw.NewPageTable(tablePages)
	if _, _, err := f.m.AddPage(PageReq{UID: 1, PT: pt, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	pt2 := hw.NewPageTable(tablePages)
	if _, _, err := f.m.AddPage(PageReq{UID: 2, PT: pt2, Page: 0, Pack: f.pack}, nil); err != nil {
		t.Fatal(err)
	}
	sets, total := f.m.SampleWorkingSets()
	if sets[1] != 0 || sets[2] != 1 || total != 1 {
		t.Fatalf("sample after eviction = %v (total %d)", sets, total)
	}
}
