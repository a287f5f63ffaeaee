// The speculative read-ahead cache: a Clock/Second-Chance layer
// between the free list and the eviction clock.
//
// When the segment manager detects a sequential fault pattern it
// names the predicted-next stored pages in PageReq.ReadAhead; the
// manager reserves a frame for each, queues a speculative read on the
// pack's elevator queue, and parks the pair as a cache entry. A later
// demand fault on the page *claims* the entry — it waits out the
// queued read's ticket and publishes the reserved frame without a
// demand disk read. Until claimed, the entry's frame belongs to
// neither the free list nor the in-use table: it is the cache's own
// partition class, and when demand allocation runs dry the
// second-chance hand sweeps the entries — a set reference bit buys
// one more sweep, a clear one surrenders the frame back to demand use
// — before the eviction clock ever touches a resident page.
package pageframe

import (
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/trace"
)

// ReadAheadPage names one stored page a sequential fault pattern
// predicts will fault next.
type ReadAheadPage struct {
	Page   int
	Record disk.RecordAddr
}

// Drop classes recorded in EvPrefetchDrop's Arg2.
const (
	dropFault int64 = iota // the speculative transfer itself faulted
	dropStale              // the page moved or vanished before claim
	dropSteal              // the second-chance clock took the frame back
)

// A cachedFrame is one prefetched-but-unclaimed page: a reserved
// frame, which its queued read fills directly, and the ticket that
// claims or cancels that read. Every path that gives the frame back
// (stale, steal, purge) cancels the ticket first, and Cancel dequeues
// the read or waits out one in flight, so no transfer lands in a frame
// after it has been reused. ref is the second-chance bit, set at issue;
// entries are immutable after insertion except for ref, which the
// steal hand clears under m.mu.
type cachedFrame struct {
	frame  int
	uid    uint64
	page   int
	pt     *hw.PageTable
	pack   *disk.Pack
	record disk.RecordAddr
	ticket *disk.Ticket
	ref    bool
}

// takeCached removes and returns the cache entry for the request's
// page, or nil. An entry whose identity no longer matches the file
// map — the page was truncated and regrown, or the segment relocated,
// since the speculation was issued — is dropped as stale rather than
// returned: claiming it would publish another record's data.
func (m *Manager) takeCached(req PageReq) *cachedFrame {
	m.mu.Lock()
	cf := m.cached[descKey{req.PT, req.Page}]
	if cf == nil {
		m.mu.Unlock()
		return nil
	}
	m.removeCachedLocked(cf)
	m.mu.Unlock()
	if cf.pack != req.Pack || cf.record != req.Record {
		cf.ticket.Cancel()
		m.noteDrop(cf, dropStale)
		m.releaseFrame(cf.frame)
		return nil
	}
	return cf
}

// claimPrefetch tries to satisfy a demand fault from the speculative
// cache. On a hit it waits out the queued read, which has filled the
// reserved frame, and returns the frame; a speculative transfer fault is dropped
// silently — the demand path below re-reads under its own retry
// budget, so speculation can never fail a fault it meant to serve.
func (m *Manager) claimPrefetch(req PageReq) (int, bool) {
	cf := m.takeCached(req)
	if cf == nil {
		return -1, false
	}
	if err := cf.ticket.Wait(); err != nil {
		m.noteDrop(cf, dropFault)
		m.releaseFrame(cf.frame)
		return -1, false
	}
	m.mu.Lock()
	m.prefetchHits++
	tr := m.trace
	m.mu.Unlock()
	if tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvPrefetchHit, Module: ModuleName,
			Arg0: int64(cf.record), Arg1: int64(cf.page),
		})
	}
	return cf.frame, true
}

// issueReadAhead reserves frames for the request's predicted-next
// pages and queues their speculative reads. Speculation spends only
// genuinely free frames: it never evicts a resident page and never
// steals a sibling cache entry, so under memory pressure read-ahead
// simply switches itself off instead of feeding the thrash it would
// worsen. It never fails the demand fault it rides on — when no frame
// is free (or a read cannot be queued) it stops speculating.
func (m *Manager) issueReadAhead(req PageReq) {
	for _, ra := range req.ReadAhead {
		d, err := req.PT.Get(ra.Page)
		if err != nil {
			break
		}
		if d.Present || d.Lock || m.writing(req.Pack, ra.Record) {
			continue
		}
		key := descKey{req.PT, ra.Page}
		m.mu.Lock()
		_, dup := m.cached[key]
		m.mu.Unlock()
		if dup {
			continue
		}
		frame, ok := m.obtainFreeFrame()
		if !ok {
			break
		}
		dst, err := m.mem.Frame(frame)
		if err != nil {
			m.releaseFrame(frame)
			break
		}
		tk, err := req.Pack.QueueReadAhead(ra.Record, dst)
		if err != nil {
			m.releaseFrame(frame)
			break
		}
		cf := &cachedFrame{
			frame: frame, uid: req.UID, page: ra.Page, pt: req.PT,
			pack: req.Pack, record: ra.Record, ticket: tk, ref: true,
		}
		m.mu.Lock()
		if _, dup := m.cached[key]; dup {
			// A concurrent faulter speculated on the same page between
			// the check above and here; keep its entry.
			m.mu.Unlock()
			tk.Cancel()
			m.releaseFrame(frame)
			continue
		}
		m.cached[key] = cf
		m.cacheRing = append(m.cacheRing, cf)
		m.prefetchIssued++
		tr := m.trace
		m.mu.Unlock()
		if tr != nil {
			tr.Emit(trace.Event{
				Kind: trace.EvPrefetchIssue, Module: ModuleName,
				Arg0: int64(ra.Record), Arg1: int64(ra.Page),
			})
		}
	}
}

// obtainFreeFrame takes one frame from the free side only — the
// caller's cache, then the global pool (reclaiming idle processors'
// parked frames) — and reports failure instead of evicting or
// stealing when everything is spoken for. The speculative path uses
// it so read-ahead never displaces resident pages.
func (m *Manager) obtainFreeFrame() (int, bool) {
	c := m.cache()
	c.mu.Lock()
	if n := len(c.frames); n > 0 {
		f := c.frames[n-1]
		c.frames = c.frames[:n-1]
		c.mu.Unlock()
		return f, true
	}
	c.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.free) == 0 {
		m.drainCachesLocked()
	}
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f, true
	}
	return 0, false
}

// stealCachedLocked runs the second-chance hand over the cache ring:
// an entry with the reference bit set spends it and survives the
// sweep; the first entry without it is removed and its frame
// surrendered to demand use. Caller holds m.mu and must Cancel the
// returned entry's ticket (outside the lock) before reusing the
// frame.
func (m *Manager) stealCachedLocked() *cachedFrame {
	n := len(m.cacheRing)
	for pass := 0; pass < 2*n; pass++ {
		cf := m.cacheRing[m.cacheHand]
		if cf.ref {
			cf.ref = false
			m.cacheHand = (m.cacheHand + 1) % len(m.cacheRing)
			continue
		}
		m.removeCachedLocked(cf)
		return cf
	}
	return nil
}

// removeCachedLocked unlinks an entry from the map and ring, keeping
// the hand stable. Caller holds m.mu.
func (m *Manager) removeCachedLocked(cf *cachedFrame) {
	delete(m.cached, descKey{cf.pt, cf.page})
	for i, e := range m.cacheRing {
		if e == cf {
			m.cacheRing = append(m.cacheRing[:i], m.cacheRing[i+1:]...)
			if m.cacheHand > i {
				m.cacheHand--
			}
			break
		}
	}
	if m.cacheHand >= len(m.cacheRing) {
		m.cacheHand = 0
	}
}

// purgeCached drops every cache entry for a page of pt numbered from
// or above — truncation, deletion and deactivation must not leave
// speculations pointing at records that may be freed and reused. The
// ring gives the victims a deterministic order.
func (m *Manager) purgeCached(pt *hw.PageTable, from int) {
	m.mu.Lock()
	var victims []*cachedFrame
	for _, cf := range m.cacheRing {
		if cf.pt == pt && cf.page >= from {
			victims = append(victims, cf)
		}
	}
	for _, cf := range victims {
		m.removeCachedLocked(cf)
	}
	m.mu.Unlock()
	for _, cf := range victims {
		cf.ticket.Cancel()
		m.noteDrop(cf, dropStale)
		m.releaseFrame(cf.frame)
	}
}

// noteDrop counts and traces one speculative entry discarded
// unclaimed.
func (m *Manager) noteDrop(cf *cachedFrame, class int64) {
	m.mu.Lock()
	if class == dropSteal {
		m.prefetchSteals++
	} else {
		m.prefetchDrops++
	}
	tr := m.trace
	m.mu.Unlock()
	if tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvPrefetchDrop, Module: ModuleName,
			Arg0: int64(cf.record), Arg1: int64(cf.page), Arg2: class,
		})
	}
}
