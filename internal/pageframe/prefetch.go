// The speculative read-ahead cache: a FIFO of reserved frames between
// the free list and the eviction clock.
//
// When the segment manager detects a sequential fault pattern it
// names the predicted-next stored pages in PageReq.ReadAhead; the
// manager reserves a frame for each, queues a speculative read on the
// pack's elevator queue straight into it, and marks the frame cached
// in the frame table, whose entry names the predicted page and holds
// the read's ticket. A later demand fault on the page *claims* the
// frame — it waits out the ticket and publishes the frame without a
// demand disk read. A cached frame belongs to neither the free list
// nor the in-use frames: it is the core map's third partition class,
// listed in issue order on the cache queue. When demand allocation
// runs dry the oldest speculation surrenders its frame back to demand
// use before the eviction clock ever touches a resident page.
//
// A speculation leaves the cache to exactly one owner — the claiming
// fault, or the path that drops it — which takes the frame's entry out
// of the table and hands its ticket back to the pack (Claim or
// Cancel). Every path that gives the frame back (stale, steal, purge)
// cancels the ticket first, and Cancel dequeues the read or waits out
// one in flight, so no transfer lands in a frame after it has been
// reused.
package pageframe

import (
	"slices"

	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/trace"
)

// ReadAheadWindow is the most stored pages beyond a sequential fault
// that a PageReq names for speculative reading.
const ReadAheadWindow = 4

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
	dropSteal              // demand allocation took the frame back
)

// cachedLocked returns the queue position of the speculation on the
// page of pt, or -1. The queue holds a few read-ahead windows at most,
// so scanning it is the index. Caller holds m.mu.
func (m *Manager) cachedLocked(pt *hw.PageTable, page int) int {
	for at, f := range m.cacheQueue {
		if fi := &m.frames[f-m.first]; fi.pt == pt && fi.page == page {
			return at
		}
	}
	return -1
}

// uncacheLocked takes the speculation at queue position at out of the
// cache and returns its frame and entry; the frame is then neither
// free, cached nor in use until the caller places it. Caller holds
// m.mu.
func (m *Manager) uncacheLocked(at int) victim {
	v := victim{frame: m.cacheQueue[at]}
	v.info = m.frames[v.frame-m.first]
	m.setFrameLocked(v.frame-m.first, frameInfo{})
	m.cacheQueue = append(m.cacheQueue[:at], m.cacheQueue[at+1:]...)
	return v
}

// claimPrefetch tries to satisfy a demand fault from the speculative
// cache and returns the claimed frame, or -1. On a hit it waits out the
// queued read, which has filled the frame. A speculation whose identity
// no longer matches the file map — the page was truncated and regrown,
// or the segment relocated, since it was issued — is dropped as stale:
// claiming it would publish another record's data. A speculative
// transfer fault is dropped silently — the demand path re-reads under
// its own retry budget, so speculation can never fail a fault it meant
// to serve.
func (m *Manager) claimPrefetch(req PageReq) int {
	m.mu.Lock()
	at := m.cachedLocked(req.PT, req.Page)
	if at < 0 {
		m.mu.Unlock()
		return -1
	}
	v := m.uncacheLocked(at)
	m.mu.Unlock()
	if v.info.pack != req.Pack || v.info.record != req.Record {
		m.releaseFrame(m.dropCached(v, dropStale))
		return -1
	}
	if err := v.info.ticket.Claim(); err != nil {
		m.releaseFrame(m.dropCached(v, dropFault))
		return -1
	}
	m.mu.Lock()
	m.prefetchHits++
	tr := m.trace
	m.mu.Unlock()
	if tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvPrefetchHit, Module: ModuleName,
			Arg0: int64(v.info.record), Arg1: int64(v.info.page),
		})
	}
	return v.frame
}

// issueReadAhead reserves frames for the request's predicted-next
// pages and queues their speculative reads. Speculation spends only
// genuinely free frames: it never evicts a resident page and never
// steals a sibling speculation's frame, so under memory pressure
// read-ahead simply switches itself off instead of feeding the thrash
// it would worsen. It never fails the demand fault it rides on — when
// no frame is free (or a read cannot be queued) it stops speculating.
func (m *Manager) issueReadAhead(req PageReq) {
	for _, ra := range req.ReadAhead[:req.ReadAheadLen] {
		d, err := req.PT.Get(ra.Page)
		if err != nil {
			break
		}
		if d.Present || d.Lock || m.Writing(req.Pack, ra.Record) {
			continue
		}
		m.mu.Lock()
		dup := m.cachedLocked(req.PT, ra.Page) >= 0
		m.mu.Unlock()
		if dup {
			continue
		}
		m.mu.Lock()
		frame, ok := m.popFreeLocked()
		m.mu.Unlock()
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
		m.mu.Lock()
		if m.cachedLocked(req.PT, ra.Page) >= 0 {
			// A concurrent faulter speculated on the same page between
			// the check above and here; keep its speculation.
			m.mu.Unlock()
			tk.Cancel()
			m.releaseFrame(frame)
			continue
		}
		if !slices.Contains(m.readPacks, req.Pack) {
			m.readPacks = append(m.readPacks, req.Pack)
		}
		m.setFrameLocked(frame-m.first, frameInfo{
			cached: true, ticket: tk, uid: req.UID, page: ra.Page,
			pt: req.PT, pack: req.Pack, record: ra.Record,
		})
		m.cacheQueue = append(m.cacheQueue, frame)
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

// stealCachedLocked takes the oldest speculation out of the cache and
// returns it, to be surrendered to demand use. Caller holds m.mu and
// must drop the returned speculation (dropCached, outside the lock)
// before reusing the frame.
func (m *Manager) stealCachedLocked() (victim, bool) {
	if len(m.cacheQueue) == 0 {
		return victim{}, false
	}
	return m.uncacheLocked(0), true
}

// purgeCached drops every speculation on a page of pt numbered from or
// above — truncation, deletion and deactivation must not leave
// speculations pointing at records that may be freed and reused. The
// queue gives the victims a deterministic order.
func (m *Manager) purgeCached(pt *hw.PageTable, from int) {
	m.mu.Lock()
	var buf [2 * ReadAheadWindow]victim
	victims := buf[:0]
	for at := 0; at < len(m.cacheQueue); {
		if fi := &m.frames[m.cacheQueue[at]-m.first]; fi.pt == pt && fi.page >= from {
			victims = append(victims, m.uncacheLocked(at))
		} else {
			at++
		}
	}
	m.mu.Unlock()
	for _, v := range victims {
		m.releaseFrame(m.dropCached(v, dropStale))
	}
}

// dropCached counts and traces one speculation discarded unclaimed,
// already taken out of the cache, and returns its frame for the caller
// to release or reuse. A read that faulted was handed back by its
// claim; any other is cancelled first, which hands the ticket back to
// the pack.
func (m *Manager) dropCached(v victim, class int64) int {
	if class != dropFault {
		v.info.ticket.Cancel()
	}
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
			Arg0: int64(v.info.record), Arg1: int64(v.info.page), Arg2: class,
		})
	}
	return v.frame
}
