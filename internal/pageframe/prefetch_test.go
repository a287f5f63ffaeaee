package pageframe

import (
	"slices"
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
	pt := hw.NewPageTable(4)
	recs := []disk.RecordAddr{f.storedPage(t, 10), f.storedPage(t, 11), f.storedPage(t, 12)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead:    [ReadAheadWindow]ReadAheadPage{{Page: 1, Record: recs[1]}, {Page: 2, Record: recs[2]}},
		ReadAheadLen: 2,
	}, nil)
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
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: page, Pack: f.pack, Record: recs[page], HasRecord: true}, nil); err != nil {
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

// When demand allocation runs dry it takes a parked prefetch frame
// back before the eviction clock touches any resident page.
func TestPrefetchSecondChanceSteal(t *testing.T) {
	f := newFixture(t, 4)
	f.m.FrameBatch = 1
	pt := hw.NewPageTable(6)
	recs := []disk.RecordAddr{f.storedPage(t, 20), f.storedPage(t, 21)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead:    [ReadAheadWindow]ReadAheadPage{{Page: 1, Record: recs[1]}},
		ReadAheadLen: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 frames: one resident, one cached, two free. Zero-fill faults
	// burn the free pair; the next allocation must steal the cached
	// frame, not evict the resident page.
	for page := 2; page <= 4; page++ {
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: page}, nil); err != nil {
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
	ev, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 1, Pack: f.pack, Record: recs[1], HasRecord: true}, nil)
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
	pt := hw.NewPageTable(2)
	recs := []disk.RecordAddr{f.storedPage(t, 30), f.storedPage(t, 31)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead:    [ReadAheadWindow]ReadAheadPage{{Page: 1, Record: recs[1]}},
		ReadAheadLen: 1,
	}, nil)
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
	pt := hw.NewPageTable(2)
	recs := []disk.RecordAddr{f.storedPage(t, 40), f.storedPage(t, 41)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead:    [ReadAheadWindow]ReadAheadPage{{Page: 1, Record: recs[1]}},
		ReadAheadLen: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The speculative read is queued but not yet serviced; arm the
	// fault plan so the service performed at claim time fails once.
	f.pack.SetFaultPlan(&disk.FaultPlan{Rules: []disk.Rule{{Op: disk.OpRead, After: 0, Times: 1}}})
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 1, Pack: f.pack, Record: recs[1], HasRecord: true}, nil); err != nil {
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

// Three speculations parked, then three demand allocations with no
// free frame: each steal takes the oldest speculation left, so the
// three go in issue order. No resident page is evicted.
func TestPrefetchStealSweepsInIssueOrder(t *testing.T) {
	f := newFixture(t, 4)
	f.m.FrameBatch = 1
	pt := hw.NewPageTable(8)
	recs := []disk.RecordAddr{f.storedPage(t, 60), f.storedPage(t, 61), f.storedPage(t, 62), f.storedPage(t, 63)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead:    [ReadAheadWindow]ReadAheadPage{{Page: 1, Record: recs[1]}, {Page: 2, Record: recs[2]}, {Page: 3, Record: recs[3]}},
		ReadAheadLen: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// queue lists the speculated pages in queue order.
	queue := func() []int {
		f.m.mu.Lock()
		defer f.m.mu.Unlock()
		var q []int
		for _, fr := range f.m.cacheQueue {
			q = append(q, f.m.frames[fr-f.m.first].page)
		}
		return q
	}
	if got, want := queue(), []int{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("queue after issue = %v, want %v", got, want)
	}
	for i, want := range [][]int{{2, 3}, {3}, nil} {
		if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 4 + i}, nil); err != nil {
			t.Fatal(err)
		}
		if got := queue(); !slices.Equal(got, want) {
			t.Errorf("queue after steal %d = %v, want %v", i+1, got, want)
		}
		if bad := f.m.Audit(); len(bad) != 0 {
			t.Errorf("audit after steal %d: %v", i+1, bad)
		}
	}
	if st := f.m.Stats(); st.PrefetchSteals != 3 || st.Evictions != 0 {
		t.Errorf("steals %d evictions %d, want 3, 0", st.PrefetchSteals, st.Evictions)
	}
}

// The audit's cache partition class: each way the frame table and
// the read-ahead queue can disagree about a speculation is reported by
// name.
func TestAuditCatchesCacheCorruption(t *testing.T) {
	f := newFixture(t, 8)
	pt := hw.NewPageTable(4)
	recs := []disk.RecordAddr{f.storedPage(t, 50), f.storedPage(t, 51), f.storedPage(t, 52)}
	_, err := f.m.LoadPage(PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead:    [ReadAheadWindow]ReadAheadPage{{Page: 1, Record: recs[1]}, {Page: 2, Record: recs[2]}},
		ReadAheadLen: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("audit before corruption: %v", bad)
	}
	spec := func(i int) *frameInfo { return &f.m.frames[f.m.cacheQueue[i]-f.m.first] }
	for _, c := range []struct {
		fault, want string
		corrupt     func()
	}{
		{"a cached frame also free", "both free and cached", func() { f.m.free = append(f.m.free, f.m.cacheQueue[0]) }},
		{"a cached frame also in use", "both cached and in use", func() { spec(0).inUse = true }},
		{"a cached frame absent from the queue", "missing from the read-ahead queue", func() { f.m.cacheQueue = f.m.cacheQueue[1:] }},
		{"a queue entry not cached", "in the read-ahead queue but not cached", func() { spec(0).cached = false }},
		{"two speculations on one page", "both speculate on page", func() { spec(1).page = spec(0).page }},
	} {
		f.m.mu.Lock()
		frames, free, queue := slices.Clone(f.m.frames), slices.Clone(f.m.free), slices.Clone(f.m.cacheQueue)
		c.corrupt()
		f.m.mu.Unlock()
		if bad := f.m.Audit(); !anyContains(bad, c.want) {
			t.Errorf("%s: audit reports %q, want %q", c.fault, bad, c.want)
		}
		f.m.mu.Lock()
		f.m.frames, f.m.free, f.m.cacheQueue = frames, free, queue
		f.m.mu.Unlock()
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Errorf("audit after repair: %v", bad)
	}
}

// Every way out of the speculative cache — claimed, stale, purged,
// stolen — hands the speculation's ticket back to its pack, and the
// next read-ahead reuses it. Audit holds the recycling rule: a pack's
// spare tickets are done, unqueued and listed once.
func TestPrefetchRecyclesEntriesAndTickets(t *testing.T) {
	f := newFixture(t, 8)
	pt := hw.NewPageTable(4)
	recs := []disk.RecordAddr{f.storedPage(t, 30), f.storedPage(t, 31), f.storedPage(t, 32)}
	ahead := PageReq{
		UID: 1, PT: pt, Page: 0, Pack: f.pack, Record: recs[0], HasRecord: true,
		ReadAhead:    [ReadAheadWindow]ReadAheadPage{{Page: 1, Record: recs[1]}, {Page: 2, Record: recs[2]}},
		ReadAheadLen: 2,
	}
	if _, err := f.m.LoadPage(ahead, nil); err != nil {
		t.Fatal(err)
	}
	tickets := func() []*disk.Ticket {
		f.m.mu.Lock()
		defer f.m.mu.Unlock()
		var tks []*disk.Ticket
		for _, fr := range f.m.cacheQueue {
			tks = append(tks, f.m.frames[fr-f.m.first].ticket)
		}
		return tks
	}
	first := tickets()
	// Claim page 1; purge page 2's speculation with the segment.
	if _, err := f.m.LoadPage(PageReq{UID: 1, PT: pt, Page: 1, Pack: f.pack, Record: recs[1], HasRecord: true}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.ReleaseSegment(pt, nil); err != nil {
		t.Fatal(err)
	}
	if st := f.m.Stats(); st.PrefetchHits != 1 || st.PrefetchDrops != 1 {
		t.Fatalf("hits %d drops %d, want 1, 1", st.PrefetchHits, st.PrefetchDrops)
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("audit after claim and purge: %v", bad)
	}
	// The next speculation reuses the handed-back tickets.
	if _, err := f.m.LoadPage(ahead, nil); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets() {
		if !slices.Contains(first, tk) {
			t.Errorf("ticket %p is new, not a recycled one", tk)
		}
	}
	if bad := f.m.Audit(); len(bad) != 0 {
		t.Fatalf("audit with recycled tickets queued: %v", bad)
	}

	// A ticket handed back twice would be handed out twice.
	buf := make([]hw.Word, hw.PageWords)
	tk, err := f.pack.QueueReadAhead(recs[0], buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = tk.Claim()
	_ = tk.Claim()
	if bad := f.m.Audit(); !anyContains(bad, "listed twice") {
		t.Errorf("audit missed a ticket recycled twice: %v", bad)
	}
}

// anyContains reports whether any of lines contains sub.
func anyContains(lines []string, sub string) bool {
	return slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, sub) })
}
