package hw

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"multics/internal/schedsim"
	"multics/internal/trace"
)

// This file simulates the 6180 associative memory: a small
// per-processor cache of segment descriptor words and page table words
// consulted before any walk of the translation tables in memory. The
// paper's redesign keeps this hardware fast path while restructuring
// the kernel around it — the second, wired per-processor translation
// table and the descriptor-lock exceptions exist precisely so the
// descriptor data the associative memory caches stays coherent under a
// multiprocess kernel. Any kernel path that changes an SDW or PTW must
// therefore clear its own associative memory and send every other
// processor a connect fault telling it to do the same; ShootdownBus is
// that primitive.

const (
	// AssocSDWSlots is the number of SDW entries per processor,
	// direct-mapped by segment number.
	AssocSDWSlots = 16
	// AssocPTWSlots is the number of PTW entries per processor,
	// direct-mapped by (segment number, page).
	AssocPTWSlots = 64
)

// assocSDW is one cached segment descriptor word. The descriptor
// table pointer is recorded so a lookup never serves an entry filled
// from a different table that happened to use the same segment number,
// and so shootdowns can match by identity; it is never dereferenced
// for slot selection, which must be deterministic across runs.
type assocSDW struct {
	valid  bool
	dt     *DescriptorTable
	segno  int
	system bool
	sdw    SDW
}

// assocPTW is one cached page table word: the frame a (segno, page)
// pair translated to, tagged with the owning page table's identity.
type assocPTW struct {
	valid  bool
	pt     *PageTable
	segno  int
	page   int
	frame  int
	system bool
}

// AssocMemStats is one associative memory's counters.
type AssocMemStats struct {
	// Hits counts translations answered from the cache.
	Hits int64
	// Misses counts translations that had to walk the tables.
	Misses int64
	// Cleared counts entries invalidated (shootdowns, local clears
	// and process switches combined).
	Cleared int64
}

// An AssociativeMemory is one processor's translation cache. Its
// mutex doubles as the processor's reference lock: the processor holds
// it across translate-plus-memory-access, and a shootdown acquires it,
// so by the time a broadcast returns, every reference that could have
// used a now-stale entry has completed and no later reference can.
type AssociativeMemory struct {
	mu      sync.Mutex
	sdws    [AssocSDWSlots]assocSDW
	ptws    [AssocPTWSlots]assocPTW
	hits    int64
	misses  int64
	cleared int64
}

// NewAssociativeMemory returns an empty associative memory.
func NewAssociativeMemory() *AssociativeMemory { return new(AssociativeMemory) }

// sdwSlot and ptwSlot are the direct-mapped slot indices. They hash
// only segment and page numbers — never pointers — so cache geometry
// is identical across runs and the single-processor event stream stays
// byte-deterministic.
func sdwSlot(segno int) int { return segno % AssocSDWSlots }

// The multiplier is odd so it is coprime with the power-of-two slot
// count and distinct segments spread across slots.
func ptwSlot(segno, page int) int {
	return (segno*257 + page) % AssocPTWSlots
}

// lookupSDWLocked returns the cached SDW for (dt, segno), if any.
// The caller holds a.mu.
func (a *AssociativeMemory) lookupSDWLocked(dt *DescriptorTable, segno int) (SDW, bool) {
	e := &a.sdws[sdwSlot(segno)]
	if e.valid && e.dt == dt && e.segno == segno {
		return e.sdw, true
	}
	return SDW{}, false
}

// lookupPTWLocked returns the cached frame for (pt, segno, page), if
// any. The caller holds a.mu.
func (a *AssociativeMemory) lookupPTWLocked(pt *PageTable, segno, page int) (int, bool) {
	e := &a.ptws[ptwSlot(segno, page)]
	if e.valid && e.pt == pt && e.segno == segno && e.page == page {
		return e.frame, true
	}
	return 0, false
}

// fillLocked caches a successful translation: the SDW that passed the
// access checks and the present, unlocked PTW it yielded. The caller
// holds a.mu.
func (a *AssociativeMemory) fillLocked(dt *DescriptorTable, segno, page, frame int, sdw SDW, system bool) {
	a.sdws[sdwSlot(segno)] = assocSDW{valid: true, dt: dt, segno: segno, system: system, sdw: sdw}
	a.ptws[ptwSlot(segno, page)] = assocPTW{valid: true, pt: sdw.Table, segno: segno, page: page, frame: frame, system: system}
}

// invalidatePTW clears the cached PTW for (pt, page); a negative page
// clears every entry of pt. It returns the entries cleared.
func (a *AssociativeMemory) invalidatePTW(pt *PageTable, page int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for i := range a.ptws {
		e := &a.ptws[i]
		if e.valid && e.pt == pt && (page < 0 || e.page == page) {
			*e = assocPTW{}
			n++
		}
	}
	a.cleared += int64(n)
	return n
}

// invalidateSDW clears the cached SDW for (dt, segno); a negative
// segno clears every entry of dt. It returns the entries cleared.
func (a *AssociativeMemory) invalidateSDW(dt *DescriptorTable, segno int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for i := range a.sdws {
		e := &a.sdws[i]
		if e.valid && e.dt == dt && (segno < 0 || e.segno == segno) {
			*e = assocSDW{}
			n++
		}
	}
	a.cleared += int64(n)
	return n
}

// clearUserLocked invalidates every entry filled through a user
// descriptor table, keeping the wired system entries — the selective
// clear a process switch performs. The caller holds a.mu.
func (a *AssociativeMemory) clearUserLocked() int {
	n := 0
	for i := range a.sdws {
		if a.sdws[i].valid && !a.sdws[i].system {
			a.sdws[i] = assocSDW{}
			n++
		}
	}
	for i := range a.ptws {
		if a.ptws[i].valid && !a.ptws[i].system {
			a.ptws[i] = assocPTW{}
			n++
		}
	}
	a.cleared += int64(n)
	return n
}

// HoldReference runs fn while holding the associative memory's mutex —
// the processor's reference lock. It models a processor in the middle
// of a reference sequence that translated through this cache: until fn
// returns, a shootdown broadcast targeting this processor cannot
// complete. Tests of shootdown ordering use it to pin the window a
// real reference would occupy.
func (a *AssociativeMemory) HoldReference(fn func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fn()
}

// Stats returns the memory's counters.
func (a *AssociativeMemory) Stats() AssocMemStats {
	if a == nil {
		return AssocMemStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return AssocMemStats{Hits: a.hits, Misses: a.misses, Cleared: a.cleared}
}

// Fingerprint renders the cache's valid entries and counters in a
// fixed format, part of the determinism surface: two identical
// single-processor runs must produce byte-identical fingerprints.
func (a *AssociativeMemory) Fingerprint() string {
	if a == nil {
		return "assoc: off"
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "assoc: hits=%d misses=%d cleared=%d\n", a.hits, a.misses, a.cleared)
	for i, e := range a.sdws {
		if e.valid {
			fmt.Fprintf(&b, "  sdw[%d] seg=%d sys=%t ring=%d/%d acc=%d\n",
				i, e.segno, e.system, e.sdw.MaxRing, e.sdw.WriteRing, int(e.sdw.Access))
		}
	}
	for i, e := range a.ptws {
		if e.valid {
			fmt.Fprintf(&b, "  ptw[%d] seg=%d page=%d frame=%d sys=%t\n",
				i, e.segno, e.page, e.frame, e.system)
		}
	}
	return b.String()
}

// A ShootdownBus is the connect-fault plane: it carries selective
// associative-memory invalidations to every processor. A kernel path
// that changes a descriptor broadcasts after the table update and
// before the old translation's target (a page frame, a record) is
// reused; because each processor's references hold its associative
// memory's mutex, the broadcast returning means no processor holds or
// can regain the stale translation. Broadcasters must not hold the
// descriptor or page table lock they just updated — the bus takes each
// processor's cache mutex in turn, and a reference path holds that
// mutex while taking table locks.
//
// A nil bus is valid and does nothing, so uncached configurations need
// no guards at the call sites.
type ShootdownBus struct {
	mu         sync.Mutex
	mems       []*AssociativeMemory
	trace      *trace.Recorder
	shootdowns atomic.Int64
}

// NewShootdownBus returns an empty bus.
func NewShootdownBus() *ShootdownBus { return new(ShootdownBus) }

// Attach connects one processor's associative memory to the bus.
func (b *ShootdownBus) Attach(a *AssociativeMemory) {
	if b == nil || a == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mems = append(b.mems, a)
}

// SetTrace directs the bus's clear events and shootdown spans to rec.
func (b *ShootdownBus) SetTrace(rec *trace.Recorder) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trace = rec
}

// Shootdowns reports the broadcasts sent so far.
func (b *ShootdownBus) Shootdowns() int64 {
	if b == nil {
		return 0
	}
	return b.shootdowns.Load()
}

func (b *ShootdownBus) targets() ([]*AssociativeMemory, *trace.Recorder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mems, b.trace
}

// InvalidatePTW broadcasts a page shootdown: every processor forgets
// its cached translation of (pt, page); a negative page clears every
// cached page of pt. module names the kernel module the clear event is
// attributed to.
func (b *ShootdownBus) InvalidatePTW(module string, pt *PageTable, page int) {
	if b == nil || pt == nil {
		return
	}
	// The broadcast is a yield point: under the deterministic
	// executor another processor may run between the table update and
	// the invalidation reaching its cache — the stale-translation
	// window the shootdown protocol exists to close.
	schedsim.Yield(schedsim.PointShootdown, module)
	mems, tr := b.targets()
	tr.BeginSpan(trace.SpanShootdown, module, int64(page))
	n := 0
	for _, a := range mems {
		n += a.invalidatePTW(pt, page)
	}
	b.shootdowns.Add(1)
	if tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvAssocClear, Module: module,
			Arg0: 0, Arg1: int64(page), Arg2: int64(n),
		})
	}
	tr.EndSpan(trace.SpanShootdown)
}

// InvalidateSDW broadcasts a segment shootdown: every processor
// forgets its cached descriptor for (dt, segno); a negative segno
// clears every cached descriptor of dt.
func (b *ShootdownBus) InvalidateSDW(module string, dt *DescriptorTable, segno int) {
	if b == nil || dt == nil {
		return
	}
	schedsim.Yield(schedsim.PointShootdown, module)
	mems, tr := b.targets()
	tr.BeginSpan(trace.SpanShootdown, module, int64(segno))
	n := 0
	for _, a := range mems {
		n += a.invalidateSDW(dt, segno)
	}
	b.shootdowns.Add(1)
	if tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvAssocClear, Module: module,
			Arg0: 1, Arg1: int64(segno), Arg2: int64(n),
		})
	}
	tr.EndSpan(trace.SpanShootdown)
}
