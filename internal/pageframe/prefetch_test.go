package pageframe

import (
	"strings"
	"testing"

	"multics/internal/disk"
	"multics/internal/hw"
)

// A fault carrying read-ahead queues the predicted pages' reads and a
// later demand fault on one of them is served from the speculative
// cache — no second demand read of the record.
func TestPrefetchClaimHit(t *testing.T) {
	f := newFixture(t, 8)
	pt := hw.NewPageTable(4, false)
	recs := []disk.RecordAddr{f.storedPage(t, 10), f.storedPage(t, 11), f.storedPage(t, 12)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead: []ReadAheadPage{{Page: 1, Record: recs[1]}, {Page: 2, Record: recs[2]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := f.m.Stats(); st.PrefetchIssued != 2 || st.PrefetchHits != 0 {
		t.Fatalf("after fault with read-ahead: issued %d hits %d, want 2, 0", st.PrefetchIssued, st.PrefetchHits)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("audit with parked prefetches: %v", bad)
	}
	for page := 1; page <= 2; page++ {
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: page, Pack: f.pack, Record: recs[page], HasRecord: true}); err != nil {
			t.Fatal(err)
		}
		if got := frameWord(t, f.mem, pt, page, 0); got != hw.Word(10+page) {
			t.Errorf("page %d word 0 = %d, want %d", page, got, 10+page)
		}
	}
	st := f.m.Stats()
	if st.PrefetchHits != 2 || st.PrefetchDrops != 0 || st.PrefetchSteals != 0 {
		t.Errorf("hits %d drops %d steals %d, want 2, 0, 0", st.PrefetchHits, st.PrefetchDrops, st.PrefetchSteals)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after claims: %v", bad)
	}
}

// When demand allocation runs dry the second-chance hand takes a
// parked prefetch frame back — the entry spends its reference bit on
// the first sweep and surrenders on the second — before the eviction
// clock touches any resident page.
func TestPrefetchSecondChanceSteal(t *testing.T) {
	f := newFixture(t, 4)
	f.m.FrameBatch = 1
	pt := hw.NewPageTable(6, false)
	recs := []disk.RecordAddr{f.storedPage(t, 20), f.storedPage(t, 21)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead: []ReadAheadPage{{Page: 1, Record: recs[1]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 frames: one resident, one cached, two free. Zero-fill faults
	// burn the free pair; the next allocation must steal the cached
	// frame, not evict the resident page.
	for page := 2; page <= 4; page++ {
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: page}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.m.Stats()
	if st.PrefetchSteals != 1 {
		t.Fatalf("steals = %d, want 1 (drops %d, evictions %d)", st.PrefetchSteals, st.PrefetchDrops, st.Evictions)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0: the cached frame should absorb the pressure", st.Evictions)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after steal: %v", bad)
	}
	// The stolen speculation is gone; the page still demand-loads.
	ev, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 1, Pack: f.pack, Record: recs[1], HasRecord: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = ev
	if got := frameWord(t, f.mem, pt, 1, 0); got != 21 {
		t.Errorf("page 1 word 0 = %d, want 21", got)
	}
	if st := f.m.Stats(); st.PrefetchHits != 0 {
		t.Errorf("hits = %d, want 0 after the entry was stolen", st.PrefetchHits)
	}
}

// Dropping or truncating a page withdraws its parked speculation: the
// record may be freed and reused, so the entry is dropped stale and
// its frame returns to the free pool.
func TestPrefetchPurgedOnDropPage(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(2, false)
	recs := []disk.RecordAddr{f.storedPage(t, 30), f.storedPage(t, 31)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead: []ReadAheadPage{{Page: 1, Record: recs[1]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	free := f.m.FreeFrames()
	f.m.DropPages(pt, 1) // page 1 is not resident — only its speculation exists
	st := f.m.Stats()
	if st.PrefetchDrops != 1 || st.PrefetchHits != 0 {
		t.Errorf("drops %d hits %d, want 1, 0", st.PrefetchDrops, st.PrefetchHits)
	}
	if got := f.m.FreeFrames(); got != free+1 {
		t.Errorf("FreeFrames = %d, want %d: the withdrawn entry's frame must come back", got, free+1)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after purge: %v", bad)
	}
}

// A transient fault on the speculative transfer is dropped silently at
// claim time: the demand fault re-reads the record under its own retry
// budget and still succeeds.
func TestPrefetchTransientFaultDropped(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(2, false)
	recs := []disk.RecordAddr{f.storedPage(t, 40), f.storedPage(t, 41)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead: []ReadAheadPage{{Page: 1, Record: recs[1]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The speculative read is queued but not yet serviced; arm the
	// fault plan so the service performed at claim time fails once.
	f.pack.SetFaultPlan(&disk.FaultPlan{Rules: []disk.Rule{{Op: disk.OpRead, After: 0, Times: 1}}})
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 1, Pack: f.pack, Record: recs[1], HasRecord: true}); err != nil {
		t.Fatalf("demand fault failed on a speculative transfer fault: %v", err)
	}
	if got := frameWord(t, f.mem, pt, 1, 0); got != 41 {
		t.Errorf("page 1 word 0 = %d, want 41", got)
	}
	st := f.m.Stats()
	if st.PrefetchDrops != 1 || st.PrefetchHits != 0 {
		t.Errorf("drops %d hits %d, want 1, 0 (the faulted speculation is discarded)", st.PrefetchDrops, st.PrefetchHits)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after dropped speculation: %v", bad)
	}
}

// The audit's cache partition class: ring/map disagreement and a
// disconnected reference bit are each reported.
func TestAuditCatchesCacheCorruption(t *testing.T) {
	f := newFixture(t, 4)
	pt := hw.NewPageTable(2, false)
	recs := []disk.RecordAddr{f.storedPage(t, 50), f.storedPage(t, 51)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead: []ReadAheadPage{{Page: 1, Record: recs[1]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("audit before corruption: %v", bad)
	}
	f.m.mu.Lock()
	cf := f.m.cacheRing[0]
	delete(f.m.cached, descKey{cf.pt, cf.page}) // ring entry with no map index
	f.m.mu.Unlock()
	bad := f.m.Audit()
	if len(bad) == 0 {
		t.Fatal("audit missed a ring entry absent from the cache map")
	}
	joined := strings.Join(bad, "; ")
	if !strings.Contains(joined, "not indexed") || !strings.Contains(joined, "ring holds") {
		t.Errorf("audit reports = %q, want the map/ring disagreement named", joined)
	}

	f.m.mu.Lock()
	f.m.cached[descKey{cf.pt, cf.page}] = cf // repair
	saved := cf.ticket
	cf.ticket = nil // reference bit set but no queued read
	f.m.mu.Unlock()
	bad = f.m.Audit()
	if len(bad) == 0 || !strings.Contains(strings.Join(bad, "; "), "reference bit") {
		t.Errorf("audit reports = %v, want the disconnected reference bit named", bad)
	}
	f.m.mu.Lock()
	cf.ticket = saved
	f.m.mu.Unlock()
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after repair: %v", bad)
	}
}
