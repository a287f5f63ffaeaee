// Package pageframe implements the page frame manager: the module of
// the kernel design that multiplexes the pageable frames of primary
// memory among segment pages.
//
// Its interface is deliberately below the segment abstraction: callers
// (the segment manager) hand it explicit page tables, packs and record
// addresses, so the page frame manager never reads the active segment
// table or the directory hierarchy — the direct cross-module data
// references that riddled the 1974 page control are structurally
// impossible here.
//
// Three details of the paper are reproduced:
//
//   - Fault service uses the descriptor lock bit set by the hardware;
//     when service completes the manager unlocks the descriptor and
//     notifies every process waiting on it (including processors that
//     had not yet reached the wait primitive, via the wakeup-waiting
//     switch). No interpretive retranslation of the faulting address
//     is ever needed.
//
//   - Adding a never-before-used page to a segment allocates a disk
//     record; when the pack is full the resulting exception is
//     returned up the call chain for the segment manager to handle by
//     relocation.
//
//   - The page-removal algorithm scans the contents of every page
//     about to be removed; a page of all zeros is represented by a
//     file-map flag and its record is freed (which is why the paper
//     notes the algorithm must be given otherwise unnecessary access
//     to the data of every page in the system). Of the rest, only the
//     pages whose descriptor's modified bit is set are written back: a
//     page not stored to since it was read in still matches its
//     record.
//
// The manager can run in the multi-process organization of the
// redesigned memory manager (Huber): page write-backs are performed by
// a dedicated page-writer process on its own virtual processor, which
// costs an inter-process message per write-back but lets the work run
// at low priority. With Daemons false the write-backs run inline, as
// the 1974 design did.
//
// Records move between disk and frame without a staging copy: demand
// and speculative reads are queued with the frame's own words as their
// destination (hw.Memory.Frame), as the 6180's I/O moved a record
// straight into core. A write-back still snapshots the victim, because
// in daemon mode the page-writer runs after the frame has been reused;
// the snapshot buffers and their batches are recycled through free
// lists the manager keeps, so a warm fault allocates next to nothing
// on the host.
package pageframe

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"multics/internal/disk"
	"multics/internal/eventcount"
	"multics/internal/hw"
	"multics/internal/lockrank"
	"multics/internal/schedsim"
	"multics/internal/trace"
	"multics/internal/vproc"
)

// ModuleName is this manager's name in the kernel dependency graph;
// trace events for page fetches, evictions and descriptor-lock waits
// are attributed to it.
const ModuleName = "page-frame-manager"

// PageWriterModule is the kernel module name of the dedicated
// write-back process.
const PageWriterModule = "page-writer"

// bodyFaultService is the assembly-language cycle cost of the fault
// service algorithm body; the PL/I recoding of the kernel multiplies
// it per hw.BodyCycles.
const bodyFaultService = 150

// ErrNoFrames is returned when every pageable frame is wired by an
// in-flight operation and none can be evicted.
var ErrNoFrames = errors.New("pageframe: no evictable frame")

// A PageReq names one page for LoadPage: which descriptor to satisfy
// and where the page's contents live.
type PageReq struct {
	// UID identifies the owning segment (for eviction reports).
	UID uint64
	// PT and Page locate the descriptor to make present.
	PT   *hw.PageTable
	Page int
	// Pack and Record give the page's disk home. HasRecord is
	// false for a zero page (contents are zeros and no record is
	// held).
	Pack      *disk.Pack
	Record    disk.RecordAddr
	HasRecord bool
	// NotifySeg/NotifyPage name the descriptor address for waiter
	// notification (the segment number the faulting processor's
	// locked-descriptor register holds).
	NotifySeg  int
	NotifyPage int
	// KeepLocked makes AddPage publish the descriptor with the lock
	// bit set instead of unlocking and notifying. The quota path has
	// no hardware-set descriptor lock, so without this a concurrent
	// eviction can take the fresh page — and zero-reclaim it — before
	// the caller has recorded the new page in its file map, leaving
	// the map pointing at a freed record. The caller must call Unlock
	// with the same request once its bookkeeping is consistent.
	KeepLocked bool
	// ReadAhead names, in its first ReadAheadLen slots, the stored
	// pages the caller predicts will fault next (a detected sequential
	// pattern). LoadPage queues their reads speculatively on the pack's
	// elevator and parks the frames in the read-ahead cache;
	// speculation failures never fail the demand fault. The window is
	// an array, not a slice, so a fault names it without allocating.
	ReadAhead    [ReadAheadWindow]ReadAheadPage
	ReadAheadLen int
}

// An Evicted report describes one page the manager removed from
// primary memory while making room. The caller (the segment manager)
// owns the file maps and quota accounting, so the report carries what
// it needs: for a zero page the record was freed and the file map
// should say zero; otherwise the page's record holds its contents,
// written back if the page was modified since it was read in.
//
// A report keeps its page table's eviction in flight (see
// AwaitEvictions) until the caller, having applied it, passes it to
// Settle: until then the table's segment must stay active, or the
// report would reach a file map and a table that are no longer its
// segment's.
type Evicted struct {
	UID    uint64
	Page   int
	Zero   bool
	Pack   string
	Record disk.RecordAddr
	// FreedRecord reports that a record was released because the
	// page turned out to be all zeros (storage charge released).
	FreedRecord bool
	// PT is the page table the page left.
	PT *hw.PageTable
}

type frameInfo struct {
	inUse bool
	// cached marks a frame reserved for a speculative read (see
	// prefetch.go), which is neither free nor in use: the identity
	// fields name the predicted page and ticket is the queued read
	// that fills the frame. The flags sit together, which keeps an
	// entry at nine words.
	cached    bool
	hasRecord bool
	ticket    *disk.Ticket
	uid       uint64
	page      int
	pt        *hw.PageTable
	pack      *disk.Pack
	record    disk.RecordAddr
	// prev and next thread the in-use frames holding pages of one page
	// table into a list, as the Multics core map threads its entries;
	// -1 ends it. setFrameLocked maintains them, and they mean nothing
	// while the frame is not in use.
	prev, next int
}

type descKey struct {
	pt   *hw.PageTable
	page int
}

type recKey struct {
	pack *disk.Pack
	rec  disk.RecordAddr
}

// DefaultFrameBatch is how many victims one eviction pass gathers for
// a grouped write-back.
const DefaultFrameBatch = 4

// A Manager multiplexes the pageable page frames.
type Manager struct {
	mem   *hw.Memory
	meter *hw.CostMeter
	vps   *vproc.Manager

	// Lang is the implementation language of the manager's body for
	// the cost model; the kernel design recodes it in PL/I.
	Lang hw.Language
	// Daemons selects the multi-process write-back organization.
	Daemons bool
	// Bus broadcasts associative-memory shootdowns whenever the
	// manager disconnects a page descriptor; a nil bus (no
	// translation caches fitted) does nothing.
	Bus *hw.ShootdownBus
	// AssocStats, when set by the kernel, reports the aggregate
	// translation-cache counters Stats folds in: hits, misses and
	// shootdown broadcasts.
	AssocStats func() (hits, misses, shootdowns int64)
	// FrameBatch overrides DefaultFrameBatch when positive.
	FrameBatch int

	mu      lockrank.Mutex
	trace   *trace.Recorder
	first   int
	frames  []frameInfo // index 0 is absolute frame `first`
	free    []int       // absolute frame numbers
	clock   int
	unlocks map[descKey]*eventcount.Eventcount
	// unwatched stands in for the unlock eventcount of a descriptor
	// nobody has waited on; no one awaits it.
	unwatched eventcount.Eventcount

	// tables is the per-table resident index: it maps each page table
	// with a resident page to the head of the list its in-use frames
	// are threaded on (frameInfo.prev/next), so one table's frames are
	// listed without probing its page slots. setFrameLocked keeps it in
	// step with every frame table write.
	tables map[*hw.PageTable]int
	// admits counts frame table writes that put a page in a frame;
	// ReleaseSegment and DropPages read it to tell when their frame
	// list is stale.
	admits int64

	// The speculative read-ahead cache (see prefetch.go): cacheQueue
	// lists the cached frames in issue order, and readPacks are the
	// packs speculative reads have been queued on, whose ticket lists
	// Audit checks.
	cacheQueue []int
	readPacks  []*disk.Pack

	// inflight counts, per disk record, the evicted pages whose
	// write-back has not reached the disk yet. Until it has, the record
	// holds stale contents: a fault must not read it, and a truncation
	// must not free it for reuse. wmu is a plain mutex, so the
	// bookkeeping adds no scheduling decision to the eviction path.
	wmu      sync.Mutex
	inflight map[recKey]int
	// evicting counts, per page table, the victims taken from the
	// frame table whose reports have not been settled (see Evicted),
	// under wmu.
	evicting map[*hw.PageTable]int
	// spareBatches and spareSnaps are the write-back free lists (see
	// writeBatch), under wmu.
	spareBatches []*writeBatch
	spareSnaps   [][]hw.Word
	// order is the frame list ReleaseSegment and DropPages fill, lent
	// to one caller at a time (see borrowOrder).
	order atomic.Pointer[[]int]

	faults, evictions, zeroEvictions, writeErrors int64
	zeroRescues                                   int64

	prefetchIssued, prefetchHits  int64
	prefetchDrops, prefetchSteals int64
}

// tracer reads the recorder under the manager lock, mirroring emit.
// The recorder never changes after NewManager, but the lock take
// stays: under the deterministic executor every ranked-lock take is a
// scheduling decision, and the fault-service figures are measured
// with this one in place.
func (m *Manager) tracer() *trace.Recorder {
	m.mu.Lock()
	tr := m.trace
	m.mu.Unlock()
	return tr
}

// emit sends e when tracing is on; the recorder is read under the
// manager lock.
func (m *Manager) emit(e trace.Event) {
	if tr := m.tracer(); tr != nil {
		tr.Emit(e)
	}
}

// NewManager returns a page frame manager owning frames
// [firstFrame, mem.Frames()). The virtual processor manager supplies
// the wait/notify primitives and the page-writer daemon. Page
// fetch/evict and lock-wait events go to rec (nil when untraced), as
// do the await/advance operations of the descriptor-unlock
// eventcounts.
func NewManager(mem *hw.Memory, firstFrame int, vps *vproc.Manager, meter *hw.CostMeter, rec *trace.Recorder) (*Manager, error) {
	if firstFrame < 0 || firstFrame >= mem.Frames() {
		return nil, fmt.Errorf("pageframe: first frame %d of %d leaves no pageable memory", firstFrame, mem.Frames())
	}
	m := &Manager{
		mem:      mem,
		meter:    meter,
		trace:    rec,
		vps:      vps,
		first:    firstFrame,
		frames:   make([]frameInfo, mem.Frames()-firstFrame),
		tables:   make(map[*hw.PageTable]int),
		unlocks:  make(map[descKey]*eventcount.Eventcount),
		inflight: make(map[recKey]int),
		evicting: make(map[*hw.PageTable]int),
		Lang:     hw.PLI,
	}
	m.mu.Init(ModuleName)
	for f := mem.Frames() - 1; f >= firstFrame; f-- {
		m.free = append(m.free, f)
	}
	return m, nil
}

// Mem exposes the primary memory the frames live in, for modules that
// must read or write resident pages directly.
func (m *Manager) Mem() *hw.Memory { return m.mem }

// FreeFrames reports how many frames are currently unassigned.
func (m *Manager) FreeFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.free)
}

// Stats is the manager's counter block: fault services, evictions,
// zero-page discoveries, and — when translation caches are fitted —
// the associative-memory hit/miss and shootdown counts, so the
// attribution of the translation fast path shows up next to the slow
// path it replaces.
type Stats struct {
	Faults        int64
	Evictions     int64
	ZeroEvictions int64
	AssocHits     int64
	AssocMisses   int64
	Shootdowns    int64
	// WriteBackErrors counts grouped write-back submissions that
	// failed even after retries. In daemon mode the evicting caller
	// is long gone when the page-writer hits the error, so this
	// counter (and the write-error trace event) is the only record
	// that evicted pages were lost.
	WriteBackErrors int64
	// ZeroRescues counts zero-reclaim verdicts revoked by the
	// post-shootdown re-validation: a store through a cached
	// translation landed between the zero scan and the broadcast, and
	// the page went back to the dirty write-back path. Schedule
	// sweeps assert this counter to prove the PR-4 window was
	// actually entered, not vacuously passed.
	ZeroRescues int64
	// The read-ahead pipeline's counters: speculative reads queued,
	// demand faults served from the speculative cache, speculations
	// discarded unclaimed (speculative transfer faults and stale
	// pages), and frames demand allocation took back from the cache.
	PrefetchIssued int64
	PrefetchHits   int64
	PrefetchDrops  int64
	PrefetchSteals int64
}

// Stats reports the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	st := Stats{
		Faults: m.faults, Evictions: m.evictions,
		ZeroEvictions: m.zeroEvictions, WriteBackErrors: m.writeErrors,
		ZeroRescues:    m.zeroRescues,
		PrefetchIssued: m.prefetchIssued, PrefetchHits: m.prefetchHits,
		PrefetchDrops: m.prefetchDrops, PrefetchSteals: m.prefetchSteals,
	}
	m.mu.Unlock()
	if m.AssocStats != nil {
		st.AssocHits, st.AssocMisses, st.Shootdowns = m.AssocStats()
	}
	return st
}

// LoadPage services a missing-page fault: it obtains a frame (evicting
// if necessary), fills it from the page's record (or with zeros for a
// zero page), makes the descriptor present, unlocks it, and notifies
// waiters. The eviction reports are appended to out, a buffer the
// caller owns, and must be applied by the caller to its file maps
// before it issues further requests. If the descriptor is already
// present the call degenerates to unlock-and-notify.
func (m *Manager) LoadPage(req PageReq, out []Evicted) ([]Evicted, error) {
	if req.PT == nil {
		return out, errors.New("pageframe: LoadPage with nil page table")
	}
	// The fault-service span closes after the daemon drain below, so
	// the write-backs a fault's evictions queued nest inside it.
	tr := m.tracer()
	tr.BeginSpan(trace.SpanFaultService, ModuleName, int64(req.Page))
	defer tr.EndSpan(trace.SpanFaultService)
	m.meter.AddBody(ModuleName, bodyFaultService, m.Lang)

	cur, err := req.PT.Get(req.Page)
	if err != nil {
		return out, err
	}
	if cur.Present {
		m.finishService(req)
		return out, nil
	}
	if req.HasRecord {
		// Another processor may have evicted this page with its
		// write-back still on the way to the record; reading the record
		// before it lands would resurrect the page's previous contents.
		m.AwaitWrite(req.Pack, req.Record)
	}

	frame := -1
	ev := out
	if req.HasRecord {
		frame = m.claimPrefetch(req)
	}
	if frame < 0 {
		var err error
		frame, ev, err = m.obtainFrame(ev)
		if err != nil {
			return ev, err
		}
		if req.HasRecord {
			dst, err := m.mem.Frame(frame)
			if err != nil {
				m.releaseFrame(frame)
				return ev, err
			}
			// The demand read rides the pack's device queue straight into
			// the frame: the faulter drives the elevator itself when the
			// seat is free and blocks on the completion eventcount when
			// another faulter holds it. The frame is neither free nor in
			// use until it is published below, so nothing else can see it
			// while the transfer fills it.
			pack, rec := req.Pack, req.Record
			if err := disk.Retry(m.meter, func() error {
				return pack.QueueRead(rec, dst)
			}); err != nil {
				m.releaseFrame(frame)
				return ev, fmt.Errorf("pageframe: fetching page %d of segment %d: %w", req.Page, req.UID, err)
			}
		} else {
			if err := m.mem.ZeroFrame(frame); err != nil {
				m.releaseFrame(frame)
				return ev, err
			}
		}
	}
	// With this fault's contents secured, speculate on the
	// predicted-next pages: their reads join the same elevator queue
	// and wait in the read-ahead cache for the following faults of
	// the sequence.
	m.issueReadAhead(req)
	m.mu.Lock()
	m.setFrameLocked(frame-m.first, frameInfo{
		inUse: true, uid: req.UID, page: req.Page, pt: req.PT,
		pack: req.Pack, record: req.Record, hasRecord: req.HasRecord,
	})
	m.faults++
	if m.trace != nil {
		from := int64(0) // zero page
		if req.HasRecord {
			from = 1 // disk record
		}
		m.trace.Emit(trace.Event{
			Kind: trace.EvPageFetch, Module: ModuleName,
			Arg0: int64(req.UID), Arg1: int64(req.Page), Arg2: from,
		})
	}
	m.mu.Unlock()
	if m.Daemons {
		// Drain the write-backs queued by this service's evictions
		// BEFORE the descriptor goes present. The drain is disk-bound,
		// and the faulter's descriptor still carries the lock bit the
		// hardware set at fault time, so the fresh frame is not
		// evictable while it runs. Draining afterwards would open a
		// long window in which other processors' evictions could take
		// the page back before the faulter ever rereferences — under
		// heavy overcommit that starves the faulter into a fault loop.
		m.vps.RunPending()
	}
	// Publication is a yield point: the schedule may interleave other
	// processors between the filled frame and the descriptor going
	// present.
	schedsim.Yield(schedsim.PointPublish, "ptw-present")
	if _, err := req.PT.Update(req.Page, func(d *hw.PTW) {
		d.Present = true
		d.Frame = frame
		d.QuotaTrap = false
		d.Used = true
		d.Modified = false
	}); err != nil {
		return ev, err
	}
	m.finishService(req)
	return ev, nil
}

// AddPage adds a never-before-used page to a segment: it allocates a
// disk record on the segment's pack (reporting disk.ErrPackFull up the
// call chain when there is none), obtains a zeroed frame, and makes
// the descriptor present. The caller has already checked and charged
// quota. On success the new record address is returned for the
// caller's file map. Eviction reports are appended to out, as
// LoadPage's are.
func (m *Manager) AddPage(req PageReq, out []Evicted) (disk.RecordAddr, []Evicted, error) {
	if req.PT == nil {
		return 0, out, errors.New("pageframe: AddPage with nil page table")
	}
	tr := m.tracer()
	tr.BeginSpan(trace.SpanFaultService, ModuleName, int64(req.Page))
	defer tr.EndSpan(trace.SpanFaultService)
	m.meter.AddBody(ModuleName, bodyFaultService, m.Lang)
	var rec disk.RecordAddr
	if err := disk.Retry(m.meter, func() error {
		var aerr error
		rec, aerr = req.Pack.AllocRecord()
		return aerr
	}); err != nil {
		return 0, out, fmt.Errorf("pageframe: adding page %d of segment %d: %w", req.Page, req.UID, err)
	}
	frame, ev, err := m.obtainFrame(out)
	if err != nil {
		_ = req.Pack.FreeRecord(rec)
		return 0, ev, err
	}
	if err := m.mem.ZeroFrame(frame); err != nil {
		_ = req.Pack.FreeRecord(rec)
		m.releaseFrame(frame)
		return 0, ev, err
	}
	m.mu.Lock()
	if req.KeepLocked {
		// Claim the descriptor before the frame joins the in-use table:
		// the quota path has no hardware-set lock, and an unlocked
		// in-use frame is a candidate for another processor's eviction
		// clock, which would disconnect a page not yet published and
		// leave the publication below pointing at a reused frame.
		_, _ = req.PT.Update(req.Page, func(d *hw.PTW) { d.Lock = true })
	}
	m.setFrameLocked(frame-m.first, frameInfo{
		inUse: true, uid: req.UID, page: req.Page, pt: req.PT,
		pack: req.Pack, record: rec, hasRecord: true,
	})
	m.faults++
	if m.trace != nil {
		m.trace.Emit(trace.Event{
			Kind: trace.EvPageFetch, Module: ModuleName,
			Arg0: int64(req.UID), Arg1: int64(req.Page), Arg2: 2, // never-before-used
		})
	}
	m.mu.Unlock()
	schedsim.Yield(schedsim.PointPublish, "ptw-new-page")
	if _, err := req.PT.Update(req.Page, func(d *hw.PTW) {
		d.Present = true
		d.Frame = frame
		d.QuotaTrap = false
		d.Used = true
		d.Modified = true
		if req.KeepLocked {
			// Claimed for the caller: evictors skip locked
			// descriptors, touchers wait for the unlock.
			d.Lock = true
		}
	}); err != nil {
		return 0, ev, err
	}
	if !req.KeepLocked {
		m.finishService(req)
	}
	if m.Daemons {
		m.vps.RunPending()
	}
	return rec, ev, nil
}

// Unlock releases the descriptor a KeepLocked AddPage left claimed and
// notifies waiters. The caller invokes it exactly once per successful
// KeepLocked service, after its file map names the new page.
func (m *Manager) Unlock(req PageReq) {
	m.finishService(req)
}

// finishService unlocks the descriptor (harmless if it was never
// locked) and notifies waiters.
func (m *Manager) finishService(req PageReq) {
	_ = req.PT.Unlock(req.Page)
	m.mu.Lock()
	ec := m.unlocks[descKey{req.PT, req.Page}]
	m.mu.Unlock()
	if ec != nil {
		m.vps.Notify(ec, req.NotifySeg, req.NotifyPage)
	} else if m.vps != nil {
		// Still cover a processor between fault and wait.
		m.vps.Notify(&m.unwatched, req.NotifySeg, req.NotifyPage)
	}
}

// WaitUnlock blocks the caller until the given descriptor's lock bit
// has been cleared by the servicing processor. proc may be nil; when
// it is not, the wakeup-waiting protocol protects the window between
// the locked-descriptor exception and this call.
func (m *Manager) WaitUnlock(proc *hw.Processor, pt *hw.PageTable, page int) error {
	m.mu.Lock()
	key := descKey{pt, page}
	ec := m.unlocks[key]
	if ec == nil {
		ec = new(eventcount.Eventcount)
		ec.Trace(m.trace, ModuleName)
		m.unlocks[key] = ec
	}
	target := ec.Read() + 1
	tr := m.trace
	m.mu.Unlock()

	d, err := pt.Get(page)
	if err != nil {
		return err
	}
	if !d.Lock {
		return nil // already serviced
	}
	m.meter.Add(ModuleName, hw.CycLockWait)
	m.emit(trace.Event{Kind: trace.EvLockSpin, Module: ModuleName, Arg0: int64(page)})
	tr.BeginSpan(trace.SpanLockWait, ModuleName, int64(page))
	m.vps.Wait(proc, ec, target)
	tr.EndSpan(trace.SpanLockWait)
	return nil
}

// batch reports the frame-batch size in effect.
func (m *Manager) batch() int {
	if m.FrameBatch > 0 {
		return m.FrameBatch
	}
	return DefaultFrameBatch
}

// popFreeLocked takes the frame on top of the free list, reporting
// false when the list is empty. Caller holds m.mu.
func (m *Manager) popFreeLocked() (int, bool) {
	n := len(m.free)
	if n == 0 {
		return 0, false
	}
	f := m.free[n-1]
	m.free = m.free[:n-1]
	return f, true
}

// obtainFrame returns a free frame, evicting victims if none is free,
// and appends the evictions' reports to out. An eviction pass gathers
// a batch of victims whose dirty pages are written back as one grouped
// disk submission, so the manager lock is never held across a disk
// write. Caller must not hold m.mu.
func (m *Manager) obtainFrame(out []Evicted) (int, []Evicted, error) {
	m.mu.Lock()
	if f, ok := m.popFreeLocked(); ok {
		m.mu.Unlock()
		return f, out, nil
	}
	// Nothing on the free list: before running the eviction clock over
	// resident pages, take back the oldest speculation — an unclaimed
	// prefetch frame is cheaper to take back than a resident page is to
	// evict and write back.
	if v, ok := m.stealCachedLocked(); ok {
		m.mu.Unlock()
		return m.dropCached(v, dropSteal), out, nil
	}
	// Nothing free anywhere: gather up to a batch of victims in one
	// pass over the clock.
	var scratch [2 * DefaultFrameBatch]victim
	victims := scratch[:0]
	for len(victims) < m.batch() {
		vf, err := m.chooseVictimLocked()
		if err != nil {
			if len(victims) == 0 {
				m.mu.Unlock()
				return 0, out, err
			}
			break
		}
		victims = append(victims, victim{frame: vf, info: m.frames[vf-m.first]})
		m.setFrameLocked(vf-m.first, frameInfo{})
		m.evictions++
	}
	m.noteEvicting(victims)
	m.mu.Unlock()

	evs, done, err := m.writeBackBatch(out, victims)
	if err != nil {
		m.recoverVictims(victims, done)
		return 0, evs, err
	}
	// The first victim's frame satisfies the caller; the rest go on the
	// free list. They only become reusable here, after the shootdown
	// broadcast in writeBackBatch has retired every cached translation
	// of them.
	if len(victims) > 1 {
		m.mu.Lock()
		for _, v := range victims[1:] {
			m.free = append(m.free, v.frame)
		}
		m.mu.Unlock()
	}
	return victims[0].frame, evs, nil
}

// chooseVictimLocked runs the clock over the in-use frames: a frame
// whose descriptor has Used set gets a second chance (the bit is
// cleared); the first frame without it is the victim.
func (m *Manager) chooseVictimLocked() (int, error) {
	n := len(m.frames)
	for pass := 0; pass < 2*n; pass++ {
		i := m.clock
		m.clock = (m.clock + 1) % n
		fi := &m.frames[i]
		if !fi.inUse {
			continue
		}
		d, err := fi.pt.Get(fi.page)
		if err != nil {
			return 0, err
		}
		if d.Lock {
			continue // mid-service, not evictable
		}
		if d.Used {
			_, _ = fi.pt.Update(fi.page, func(w *hw.PTW) { w.Used = false })
			continue
		}
		return m.first + i, nil
	}
	// Second-chance exhausted: take any unlocked in-use frame.
	for i := range m.frames {
		if m.frames[i].inUse {
			d, err := m.frames[i].pt.Get(m.frames[i].page)
			if err != nil {
				return 0, err
			}
			if !d.Lock {
				return m.first + i, nil
			}
		}
	}
	return 0, ErrNoFrames
}

// A victim is one frame taken out of the frame table with its entry:
// an evicted page still to be disconnected and persisted, or a
// speculation leaving the read-ahead cache.
type victim struct {
	frame int
	info  frameInfo
}

// A pendingWrite is one dirty victim's contents awaiting its grouped
// disk submission.
type pendingWrite struct {
	pack *disk.Pack
	rec  disk.RecordAddr
	buf  []hw.Word
}

// A writeBatch carries one eviction pass's dirty pages to the disk:
// their snapshots, the records they hold in flight, and the per-pack
// scratch flushWrites submits from. The page-writer runs after the
// victims' frames are back in circulation, so the snapshots cannot be
// the frames themselves; instead batches and snapshot buffers come
// from free lists the manager keeps under wmu, and a warm write-back
// allocates nothing.
type writeBatch struct {
	writes []pendingWrite
	marked []recKey
	recs   []disk.RecordAddr
	bufs   [][]hw.Word
	// flush is the page-writer's work item for this batch, bound once
	// when the batch is made.
	flush func()
}

// newBatch returns an empty write batch, reusing a retired one when
// there is one.
func (m *Manager) newBatch() *writeBatch {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if n := len(m.spareBatches); n > 0 {
		b := m.spareBatches[n-1]
		m.spareBatches = m.spareBatches[:n-1]
		return b
	}
	b := &writeBatch{}
	b.flush = func() {
		if err := m.flushWrites(b); err != nil {
			m.noteWriteError(len(b.writes), b.writes[0].rec)
		}
		m.retire(b)
	}
	return b
}

// snapshot returns a page-sized buffer for a dirty victim's contents.
func (m *Manager) snapshot() []hw.Word {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if n := len(m.spareSnaps); n > 0 {
		buf := m.spareSnaps[n-1]
		m.spareSnaps = m.spareSnaps[:n-1]
		return buf
	}
	return make([]hw.Word, hw.PageWords)
}

// retire ends a write batch once its writes have reached the disk (or
// were abandoned): its records are no longer in flight, and it and its
// snapshot buffers go back on the free lists.
func (m *Manager) retire(b *writeBatch) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	for _, k := range b.marked {
		m.markWriteLocked(k, -1)
	}
	for _, w := range b.writes {
		m.spareSnaps = append(m.spareSnaps, w.buf)
	}
	b.writes, b.marked, b.recs, b.bufs = b.writes[:0], b.marked[:0], b.recs[:0], b.bufs[:0]
	m.spareBatches = append(m.spareBatches, b)
}

// writeBackBatch disconnects each victim's descriptor and persists the
// group: zeros free their records (the zero-page optimization), a
// clean page leaves without a write, and every modified page is
// gathered into one grouped disk submission per pack — queued to the
// page-writer daemon when the multi-process organization is on —
// instead of one positioning operation per page.
// Eviction reports are appended to out for every victim processed, even
// when a later one fails, along with how many victims were disconnected
// (descriptor made not-present and shot down) before the failure, so
// the caller can put exactly those frames back in circulation and
// reinstate the rest. Caller must not hold m.mu.
func (m *Manager) writeBackBatch(out []Evicted, victims []victim) (evs []Evicted, disconnected int, err error) {
	evs = out
	// A victim that leaves without a report leaves no eviction in
	// flight either: the victims are reported in order, so those past
	// the reports are settled here.
	defer func() { m.settleVictims(victims[len(evs)-len(out):]) }()
	b := m.newBatch()
	// Each victim's record is marked in flight before its descriptor
	// goes not-present, so no processor can fault the page back in from
	// the record before the write-back lands. A zero page's mark goes
	// with its record, and a clean page's as soon as its modified bit
	// reads clear; a dirty page's once its write completes — or here,
	// if the batch fails before handing the writes off.
	handedOff := false
	defer func() {
		if !handedOff {
			m.retire(b)
		}
	}()
	for _, v := range victims {
		info := v.info
		// Scan for zeros before disconnecting: a zero page's trap
		// bit must appear atomically with not-present, so a racing
		// toucher sees either the resident page or the charged
		// quota path, never a gap.
		zero, err := m.mem.FrameIsZero(v.frame)
		if err != nil {
			return evs, disconnected, err
		}
		var key recKey
		if info.hasRecord {
			key = recKey{info.pack, info.record}
			m.markWrite(key, 1)
			b.marked = append(b.marked, key)
		}
		if _, err := info.pt.Update(info.page, func(d *hw.PTW) {
			d.Present = false
			d.Frame = 0
			d.QuotaTrap = zero
		}); err != nil {
			return evs, disconnected, err
		}
		// Broadcast before the frame's contents are read or the
		// frame reused: when InvalidatePTW returns, every reference
		// that translated through a cached PTW has completed and no
		// processor can reach the frame again. The marked yield is
		// the PR-4 critical window: a reference through a cached PTW
		// may still complete against the old frame until the
		// broadcast returns, which is why the zero verdict below must
		// be re-validated.
		if zero {
			schedsim.Yield(schedsim.PointMark, "zero-reclaim")
		}
		m.Bus.InvalidatePTW(ModuleName, info.pt, info.page)
		disconnected++
		if zero {
			// Re-validate the zero verdict now that the broadcast has
			// retired every cached translation: a reference on another
			// processor is allowed to complete against the old frame
			// until InvalidatePTW returns, so a store may have landed
			// after the scan. Such a page is not zero after all — it
			// keeps its record and takes the write-back path, and the
			// trap bit set above must come off again.
			still, err := m.mem.FrameIsZero(v.frame)
			if err != nil {
				return evs, disconnected, err
			}
			if !still {
				zero = false
				m.mu.Lock()
				m.zeroRescues++
				m.mu.Unlock()
				if _, err := info.pt.Update(info.page, func(d *hw.PTW) {
					d.QuotaTrap = false
				}); err != nil {
					return evs, disconnected, err
				}
			}
		}
		ev := Evicted{UID: info.uid, Page: info.page, Zero: zero, PT: info.pt}
		if info.pack != nil {
			ev.Pack = info.pack.ID()
			ev.Record = info.record
		}
		var wasZero int64
		if zero {
			wasZero = 1
		}
		m.emit(trace.Event{Kind: trace.EvPageEvict, Module: ModuleName, Arg0: int64(info.uid), Arg1: int64(info.page), Arg2: wasZero})
		if zero {
			m.mu.Lock()
			m.zeroEvictions++
			m.mu.Unlock()
			if info.hasRecord {
				b.marked = b.marked[:len(b.marked)-1]
				m.markWrite(key, -1)
				if err := info.pack.FreeRecord(info.record); err != nil {
					return evs, disconnected, err
				}
				ev.FreedRecord = true
			}
			evs = append(evs, ev)
			continue
		}
		if !info.hasRecord {
			return evs, disconnected, fmt.Errorf("pageframe: dirty page %d of segment %d has no record", info.page, info.uid)
		}
		// A page not stored to since it was read in still matches its
		// record, so it leaves memory without a write. The modified bit
		// is read only now: until InvalidatePTW returned, a store
		// through a cached PTW could still complete and set it.
		d, err := info.pt.Get(info.page)
		if err != nil {
			return evs, disconnected, err
		}
		if !d.Modified {
			b.marked = b.marked[:len(b.marked)-1]
			m.markWrite(key, -1)
			evs = append(evs, ev)
			continue
		}
		buf := m.snapshot()
		b.writes = append(b.writes, pendingWrite{pack: info.pack, rec: info.record, buf: buf})
		if err := m.mem.ReadFrame(v.frame, buf); err != nil {
			return evs, disconnected, err
		}
		evs = append(evs, ev)
	}
	if len(b.writes) == 0 {
		return evs, disconnected, nil
	}
	if m.Daemons && m.vps != nil {
		if err := m.vps.Enqueue(PageWriterModule, b.flush); err != nil {
			return evs, disconnected, err
		}
		handedOff = true
		return evs, disconnected, nil
	}
	if err := m.flushWrites(b); err != nil {
		m.noteWriteError(len(b.writes), b.writes[0].rec)
		return evs, disconnected, fmt.Errorf("pageframe: writing back %d evicted pages: %w", len(b.writes), err)
	}
	return evs, disconnected, nil
}

// markWrite adds delta to the record's count of evicted pages whose
// write-back has yet to reach the disk.
func (m *Manager) markWrite(k recKey, delta int) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.markWriteLocked(k, delta)
}

// markWriteLocked is markWrite for a caller holding m.wmu.
func (m *Manager) markWriteLocked(k recKey, delta int) {
	if m.inflight[k] += delta; m.inflight[k] <= 0 {
		delete(m.inflight, k)
	}
}

// noteEvicting puts the victims' evictions in flight against their
// page tables. Caller holds m.mu, under which the victims left the
// frame table.
func (m *Manager) noteEvicting(victims []victim) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	for _, v := range victims {
		m.evicting[v.info.pt]++
	}
}

// settleVictims ends the evictions of victims that produced no report.
func (m *Manager) settleVictims(victims []victim) {
	if len(victims) == 0 {
		return
	}
	m.wmu.Lock()
	defer m.wmu.Unlock()
	for _, v := range victims {
		m.settleLocked(v.info.pt)
	}
}

// Settle ends the evictions the reports describe: the caller has
// applied them to its file maps (or given up on them), so their page
// tables' segments may now leave the active segment table. Every
// report LoadPage, AddPage and ReleaseSegment return must be settled
// exactly once.
func (m *Manager) Settle(evs []Evicted) {
	if len(evs) == 0 {
		return
	}
	m.wmu.Lock()
	defer m.wmu.Unlock()
	for _, ev := range evs {
		m.settleLocked(ev.PT)
	}
}

// settleLocked ends one eviction against pt. Caller holds m.wmu.
func (m *Manager) settleLocked(pt *hw.PageTable) {
	if m.evicting[pt]--; m.evicting[pt] <= 0 {
		delete(m.evicting, pt)
	}
}

// evictingFrom reports whether an eviction of one of pt's pages is in
// flight: taken from the frame table and not yet settled.
func (m *Manager) evictingFrom(pt *hw.PageTable) bool {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.evicting[pt] > 0
}

// AwaitEvictions returns once no eviction of a page of pt is in
// flight. A processor that chose one of pt's pages as a victim
// disconnects it, writes pt, and reports it to the segment manager
// after the frame has left the frame table, where ReleaseSegment and
// DropPages no longer see it; a segment leaving the active segment
// table waits here first, so neither the table write nor the report
// lands after the segment is gone (or its table reused).
func (m *Manager) AwaitEvictions(pt *hw.PageTable) {
	for m.evictingFrom(pt) {
		schedsim.Block("eviction in flight", func() bool { return !m.evictingFrom(pt) })
		runtime.Gosched()
	}
}

// Writing reports whether an evicted page's write-back to the record
// has yet to reach the disk. It takes no ranked lock, so a caller may
// ask it while holding a pack's lock.
func (m *Manager) Writing(pack *disk.Pack, rec disk.RecordAddr) bool {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.inflight[recKey{pack, rec}] > 0
}

// AwaitWrite returns once no evicted page's write-back to the record
// is outstanding. Until then the record's contents are stale, so it
// must be neither read nor freed for reuse. A write still queued for
// the page-writer is run here; one another processor is performing is
// waited out.
func (m *Manager) AwaitWrite(pack *disk.Pack, rec disk.RecordAddr) {
	for m.Writing(pack, rec) {
		if m.Daemons && m.vps != nil {
			m.vps.RunPending()
		}
		if !m.Writing(pack, rec) {
			return
		}
		schedsim.Block("write-back in flight", func() bool { return !m.Writing(pack, rec) })
		runtime.Gosched()
	}
}

// noteWriteError records a grouped write-back submission that failed
// after retries: the counter feeds Stats, and the trace event is the
// durable record — in daemon mode the evicting caller has long
// returned and the frames are already reused, so nothing can be
// unwound and the loss must not be silent.
func (m *Manager) noteWriteError(pages int, first disk.RecordAddr) {
	m.mu.Lock()
	m.writeErrors++
	m.mu.Unlock()
	m.emit(trace.Event{
		Kind: trace.EvWriteError, Module: ModuleName,
		Arg0: int64(pages), Arg1: int64(first),
	})
}

// flushWrites submits the batch's dirty pages, one queued batch per
// pack in first-seen order. Each pack's records are sorted into
// ascending elevator order first, so the device pays the short-seek
// tier between neighbors instead of the full average seek the
// eviction clock's arbitrary order would cost.
func (m *Manager) flushWrites(b *writeBatch) error {
	for i, w := range b.writes {
		if packSeen(b.writes[:i], w.pack) {
			continue
		}
		b.recs, b.bufs = b.recs[:0], b.bufs[:0]
		for _, g := range b.writes[i:] {
			if g.pack != w.pack {
				continue
			}
			// Insertion into record order: a batch is a handful of pages.
			j := len(b.recs)
			b.recs = append(b.recs, g.rec)
			b.bufs = append(b.bufs, g.buf)
			for ; j > 0 && b.recs[j-1] > g.rec; j-- {
				b.recs[j], b.bufs[j] = b.recs[j-1], b.bufs[j-1]
			}
			b.recs[j], b.bufs[j] = g.rec, g.buf
		}
		pack := w.pack
		if err := disk.Retry(m.meter, func() error {
			return pack.QueueWriteBatch(b.recs, b.bufs)
		}); err != nil {
			return err
		}
	}
	return nil
}

// packSeen reports whether any of ws is bound for pack.
func packSeen(ws []pendingWrite, pack *disk.Pack) bool {
	for _, w := range ws {
		if w.pack == pack {
			return true
		}
	}
	return false
}

// releaseFrame returns a frame obtained by obtainFrame that could not
// be used.
func (m *Manager) releaseFrame(frame int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setFrameLocked(frame-m.first, frameInfo{})
	m.free = append(m.free, frame)
}

// recoverVictims returns a failed write-back pass's frames to the
// manager's books so none leaks: the first `disconnected` victims'
// descriptors were made not-present and shot down, so nothing can
// reach those frames again and they go back on the free list; the
// rest were never touched — their pages are still resident and
// mapped — so their table entries are reinstated and the evictions
// uncounted.
func (m *Manager) recoverVictims(victims []victim, disconnected int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, v := range victims {
		if i < disconnected {
			m.free = append(m.free, v.frame)
		} else {
			m.setFrameLocked(v.frame-m.first, v.info)
			m.evictions--
		}
	}
}

// setFrameLocked writes entry i of the frame table and keeps the
// per-table resident index in step with it: the entry leaves its old
// table's list and joins the head of its new one. Every frame table
// write goes through it. Caller holds m.mu.
func (m *Manager) setFrameLocked(i int, fi frameInfo) {
	if old := &m.frames[i]; old.inUse {
		if old.prev >= 0 {
			m.frames[old.prev].next = old.next
		} else if old.next >= 0 {
			m.tables[old.pt] = old.next
		} else {
			delete(m.tables, old.pt)
		}
		if old.next >= 0 {
			m.frames[old.next].prev = old.prev
		}
	}
	fi.prev, fi.next = -1, -1
	if fi.inUse {
		if head, ok := m.tables[fi.pt]; ok {
			fi.next = head
			m.frames[head].prev = i
		}
		m.tables[fi.pt] = i
		m.admits++
	}
	m.frames[i] = fi
}

// borrowOrder lends the caller the manager's frame-list buffer, so a
// release or drop lists its table's resident frames without allocating
// once the buffer has grown to a segment's resident size; a caller that
// finds it lent out (a concurrent release) gets a fresh one.
func (m *Manager) borrowOrder() *[]int {
	if buf := m.order.Swap(nil); buf != nil {
		return buf
	}
	return new([]int)
}

// returnOrder gives the buffer back, keeping order's backing.
func (m *Manager) returnOrder(buf *[]int, order []int) {
	*buf = order[:0]
	m.order.Store(buf)
}

// residentLocked appends to order the frames that hold pages of pt
// numbered from or above, sorted by page number when byPage is set and
// by frame number otherwise. It reads them off the per-table resident
// index, so it costs O(resident pages of pt) however long the table
// is. Caller holds m.mu.
func (m *Manager) residentLocked(order []int, pt *hw.PageTable, from int, byPage bool) []int {
	i, ok := m.tables[pt]
	for ; ok && i >= 0; i = m.frames[i].next {
		if m.frames[i].page >= from {
			order = append(order, i)
		}
	}
	if byPage {
		slices.SortFunc(order, func(a, b int) int { return m.frames[a].page - m.frames[b].page })
	} else {
		slices.Sort(order)
	}
	return order
}

// holdsLocked reports whether entry i of the frame table holds a page
// of pt numbered from or above. Caller holds m.mu.
func (m *Manager) holdsLocked(i int, pt *hw.PageTable, from int) bool {
	fi := &m.frames[i]
	return fi.inUse && fi.pt == pt && fi.page >= from
}

// ReleaseSegment evicts every resident page belonging to pt, writing
// contents back (or freeing records for zero pages), and appends the
// reports to out, a buffer the caller owns. The segment manager calls
// it on deactivation.
func (m *Manager) ReleaseSegment(pt *hw.PageTable, out []Evicted) ([]Evicted, error) {
	// Withdraw outstanding speculations first: a deactivated segment's
	// records may be freed and reused, and a parked prefetch must not
	// outlive the file map that named it.
	m.purgeCached(pt, 0)
	buf := m.borrowOrder()
	order, next, admits := (*buf)[:0], 0, int64(-1)
	defer func() { m.returnOrder(buf, order) }()
	for {
		// Release in frame order, lowest first. The listing is repeated
		// only when a frame was admitted since the last one: only then
		// can a page of pt have become resident ahead of those listed.
		m.mu.Lock()
		if admits != m.admits {
			order, next, admits = m.residentLocked(order[:0], pt, 0, false), 0, m.admits
		}
		for next < len(order) && !m.holdsLocked(order[next], pt, 0) {
			next++
		}
		if next == len(order) {
			m.mu.Unlock()
			return out, nil
		}
		idx := order[next]
		next++
		info := m.frames[idx]
		m.setFrameLocked(idx, frameInfo{})
		m.evictions++
		v := []victim{{frame: m.first + idx, info: info}}
		m.noteEvicting(v)
		m.mu.Unlock()

		var done int
		var err error
		if out, done, err = m.writeBackBatch(out, v); err != nil {
			m.recoverVictims(v, done)
			return out, err
		}
		m.mu.Lock()
		m.free = append(m.free, m.first+idx)
		m.mu.Unlock()
		if m.Daemons && m.vps != nil {
			m.vps.RunPending()
		}
	}
}

// SampleWorkingSets implements the usage estimation of Gifford's
// project study ("Hardware Estimation of a Process' Primary Memory
// Requirements"): the hardware sets a used bit on every reference,
// and a periodic sample reads and clears the bits, yielding each
// segment's count of recently referenced resident pages — its
// working-set contribution. Returns the per-segment counts and the
// total.
func (m *Manager) SampleWorkingSets() (map[uint64]int, int) {
	m.mu.Lock()
	type ref struct {
		pt   *hw.PageTable
		page int
		uid  uint64
	}
	var refs []ref
	for _, fi := range m.frames {
		if fi.inUse {
			refs = append(refs, ref{pt: fi.pt, page: fi.page, uid: fi.uid})
		}
	}
	m.mu.Unlock()
	sets := make(map[uint64]int)
	total := 0
	for _, r := range refs {
		var used bool
		if _, err := r.pt.Update(r.page, func(d *hw.PTW) {
			used = d.Used
			d.Used = false
		}); err != nil {
			continue
		}
		if used {
			sets[r.uid]++
			total++
		}
	}
	return sets, total
}

// Audit checks the manager's own invariants and returns a description
// of every violation: the free list, the cached frames and the in-use
// frames must partition the pageable frames exactly, the read-ahead
// ring must list exactly the cached frames, every in-use frame's page
// descriptor must point back at that frame, and the per-table resident
// lists must name exactly the in-use frames, each under its own table.
// It is one module's share of the paper's audit prong.
func (m *Manager) Audit() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var bad []string
	free := make([]bool, len(m.frames))
	for _, f := range m.free {
		if f < m.first || f >= m.first+len(m.frames) {
			bad = append(bad, fmt.Sprintf("free frame %d outside pageable range", f))
			continue
		}
		if free[f-m.first] {
			bad = append(bad, fmt.Sprintf("frame %d on free list twice", f))
		}
		free[f-m.first] = true
		if fi := &m.frames[f-m.first]; fi.inUse {
			bad = append(bad, fmt.Sprintf("frame %d both free and in use", f))
		} else if fi.cached {
			bad = append(bad, fmt.Sprintf("frame %d both free and cached", f))
		}
	}
	// The read-ahead queue must name exactly the cached frames, each
	// once; the walk of the table below checks the other direction.
	queued := make([]bool, len(m.frames))
	for _, f := range m.cacheQueue {
		if f < m.first || f >= m.first+len(m.frames) {
			bad = append(bad, fmt.Sprintf("read-ahead queue names frame %d outside pageable range", f))
			continue
		}
		if queued[f-m.first] {
			bad = append(bad, fmt.Sprintf("frame %d is in the read-ahead queue twice", f))
		}
		queued[f-m.first] = true
	}
	for _, p := range m.readPacks {
		bad = append(bad, p.AuditQueue()...)
	}
	// Walk every table's resident list: each entry must be an in-use
	// frame of that table, linked back to its predecessor, listed once.
	listed := make([]bool, len(m.frames))
	listedN := 0
	for pt, head := range m.tables {
		prev := -1
		for i := head; i >= 0; prev, i = i, m.frames[i].next {
			fi := &m.frames[i]
			if listed[i] {
				bad = append(bad, fmt.Sprintf("frame %d listed twice in the resident index", m.first+i))
				break
			}
			listed[i] = true
			listedN++
			if !fi.inUse || fi.pt != pt {
				bad = append(bad, fmt.Sprintf("frame %d is on a page table's resident list but does not hold one of its pages", m.first+i))
			}
			if fi.prev != prev {
				bad = append(bad, fmt.Sprintf("frame %d's resident-list back link names %d, want %d", m.first+i, fi.prev, prev))
			}
		}
	}
	// Walk the frame table: a cached frame is in the queue, never in
	// use and the only speculation on its page; an in-use frame is
	// listed and mapped.
	inUse := 0
	specs := make(map[descKey]int)
	for i, fi := range m.frames {
		frame := m.first + i
		if fi.cached && !queued[i] {
			bad = append(bad, fmt.Sprintf("cached frame %d is missing from the read-ahead queue", frame))
		} else if !fi.cached && queued[i] {
			bad = append(bad, fmt.Sprintf("frame %d is in the read-ahead queue but not cached", frame))
		}
		if fi.cached {
			if other, dup := specs[descKey{fi.pt, fi.page}]; dup {
				bad = append(bad, fmt.Sprintf("frames %d and %d both speculate on page %d of segment %d", other, frame, fi.page, fi.uid))
			}
			specs[descKey{fi.pt, fi.page}] = frame
		}
		if !fi.inUse {
			if !free[i] && !fi.cached {
				bad = append(bad, fmt.Sprintf("frame %d neither free, cached nor in use", frame))
			}
			continue
		}
		if fi.cached {
			bad = append(bad, fmt.Sprintf("frame %d both cached and in use", frame))
		}
		inUse++
		if !listed[i] {
			bad = append(bad, fmt.Sprintf("frame %d holds page %d of segment %d but its table's resident list does not name it", frame, fi.page, fi.uid))
		}
		if free[i] {
			continue // already reported as both
		}
		d, err := fi.pt.Get(fi.page)
		if err != nil {
			bad = append(bad, fmt.Sprintf("frame %d: descriptor unreadable: %v", frame, err))
			continue
		}
		if !d.Present || d.Frame != frame {
			bad = append(bad, fmt.Sprintf("frame %d holds page %d of segment %d but its descriptor says present=%v frame=%d", frame, fi.page, fi.uid, d.Present, d.Frame))
		}
	}
	if listedN != inUse {
		bad = append(bad, fmt.Sprintf("resident index lists %d pages but %d frames are in use", listedN, inUse))
	}
	return bad
}

// DropPages discards every resident page of pt numbered from or above
// without write-back: deletion drops from 0, truncation from the new
// length. It withdraws those pages' speculations, resident or not,
// keeps the rest, and costs O(resident pages of pt), not O(table
// length). Pages are dropped in page order, and each frame returns to
// the free list only after its descriptor is cleared and the shootdown
// broadcast has retired every cached translation of it.
func (m *Manager) DropPages(pt *hw.PageTable, from int) {
	// A dropped page's speculation is withdrawn whether or not the page
	// is resident: its record goes back to the pack's free pool and may
	// be reallocated immediately.
	m.purgeCached(pt, from)
	buf := m.borrowOrder()
	order, next, admits := (*buf)[:0], 0, int64(-1)
	defer func() { m.returnOrder(buf, order) }()
	for {
		// As in ReleaseSegment, list again only when a frame was
		// admitted since the last listing.
		m.mu.Lock()
		if admits != m.admits {
			order, next, admits = m.residentLocked(order[:0], pt, from, true), 0, m.admits
		}
		for next < len(order) && !m.holdsLocked(order[next], pt, from) {
			next++
		}
		if next == len(order) {
			m.mu.Unlock()
			return
		}
		idx := order[next]
		page := m.frames[idx].page
		if !published(pt, page, m.first+idx) {
			// A fault service has put the frame in use and not yet made
			// the descriptor present (LoadPage and AddPage yield between
			// the two). Dropping the frame now would let that publication
			// map a free frame; wait for it, then drop the published page.
			m.mu.Unlock()
			schedsim.Block("ptw publication", func() bool { return published(pt, page, -1) })
			runtime.Gosched()
			continue
		}
		next++
		m.setFrameLocked(idx, frameInfo{})
		m.mu.Unlock()
		_, _ = pt.Update(page, func(d *hw.PTW) { *d = hw.PTW{} })
		m.Bus.InvalidatePTW(ModuleName, pt, page)
		m.mu.Lock()
		m.free = append(m.free, m.first+idx)
		m.mu.Unlock()
	}
}

// published reports whether the page's descriptor is present and, for
// a frame other than -1, maps that frame.
func published(pt *hw.PageTable, page, frame int) bool {
	d, err := pt.Get(page)
	return err == nil && d.Present && (frame < 0 || d.Frame == frame)
}
