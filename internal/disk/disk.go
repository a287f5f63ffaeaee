// Package disk simulates the secondary-storage substrate of Multics:
// demountable disk packs, each with a table of contents naming the
// segments it stores, and per-segment file maps allocating one record
// per non-zero page.
//
// The details the paper's arguments depend on are reproduced exactly:
//
//   - a directory entry names a segment by pack identifier and an
//     index into that pack's table of contents;
//   - for robustness and demountability, all pages of a segment live
//     on the same pack, so growing a segment can raise a full-pack
//     exception that forces the whole segment to move to an emptier
//     pack and the directory entry to be updated;
//   - page-sized blocks of zeros are represented by flags in the file
//     map rather than by allocated records, so a 100-page file that is
//     non-zero in only two pages is charged for two records.
package disk

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

// ModuleName is this manager's name in the kernel dependency graph;
// trace events for record transfers are attributed to it.
const ModuleName = "disk-record-manager"

// ErrPackFull is reported when a record allocation finds no free
// record on the pack: the full-disk-pack exception of the paper.
var ErrPackFull = errors.New("disk: pack full")

// RecordAddr is the index of one 1024-word record on a pack.
type RecordAddr int

// TOCIndex is an index into a pack's table of contents.
type TOCIndex int

// SegAddr is the permanent name of a segment's storage: the containing
// pack and the index of its table-of-contents entry. This is the form
// in which a file-system directory entry names a segment.
type SegAddr struct {
	Pack string
	TOC  TOCIndex
}

func (a SegAddr) String() string { return fmt.Sprintf("%s:%d", a.Pack, int(a.TOC)) }

// PageState classifies one page in a file map.
type PageState int

const (
	// PageUnallocated marks a page that has never been used. A
	// reference to it is what raises the quota exception.
	PageUnallocated PageState = iota
	// PageZero marks a page whose contents are entirely zero and is
	// therefore represented by this flag alone, with no record.
	PageZero
	// PageStored marks a page stored in a disk record.
	PageStored
)

func (s PageState) String() string {
	switch s {
	case PageUnallocated:
		return "unallocated"
	case PageZero:
		return "zero"
	case PageStored:
		return "stored"
	default:
		return fmt.Sprintf("pagestate(%d)", int(s))
	}
}

// A FileMapEntry locates one page of a segment.
type FileMapEntry struct {
	State  PageState
	Record RecordAddr
}

// A QuotaCell is the storage-quota record kept in the table-of-contents
// entry of a directory that has been designated a quota directory: a
// limit on the pages chargeable to the subtree and the count of pages
// currently used. The quota cell manager caches these in primary
// memory; this struct is their home on disk.
type QuotaCell struct {
	Valid bool
	Limit int
	Used  int
}

// A TOCEntry describes one segment stored on a pack.
type TOCEntry struct {
	// UID is the segment's system-wide unique identifier.
	UID uint64
	// Dir records that the segment holds a directory.
	Dir bool
	// Gov is the unique identifier of the quota directory whose cell
	// this segment's pages are charged to (zero for segments that
	// never grow). Because quota cells are statically bound, the
	// binding can be recorded here at creation — which is what lets
	// the volume salvager recompute every cell's used-count from the
	// file maps alone after a crash. Naming the governing cell by
	// segment UID rather than disk address keeps the binding valid
	// across relocations.
	Gov uint64
	// Map is the file map, one entry per page.
	Map []FileMapEntry
	// Quota is the quota cell, meaningful only for quota
	// directories.
	Quota QuotaCell
	live  bool
}

// Records reports the number of disk records the entry occupies (its
// chargeable size).
func (e *TOCEntry) Records() int {
	n := 0
	for _, m := range e.Map {
		if m.State == PageStored {
			n++
		}
	}
	return n
}

// A Pack is one demountable disk pack: a fixed number of records, a
// free list, and a table of contents. All methods are safe for
// concurrent use.
type Pack struct {
	id       string
	capacity int

	mu      sync.Mutex
	mounted bool
	dirty   bool
	used    int
	free    []RecordAddr
	data    map[RecordAddr][]hw.Word
	toc     []TOCEntry
	meter   *hw.CostMeter
	trace   *trace.Recorder
	faults  *FaultPlan
	// head is the record the heads are positioned over after the last
	// transfer; distance from it prices the next seek.
	head RecordAddr

	// dev is the pack's asynchronous request queue (queue.go).
	dev device
}

// SetTrace routes this pack's record transfers to rec (nil turns
// tracing off).
func (p *Pack) SetTrace(rec *trace.Recorder) {
	p.mu.Lock()
	p.trace = rec
	p.mu.Unlock()
}

// SetFaultPlan installs a fault plan on this pack (nil removes it —
// the reboot path, where the new machine sees the old packs but not
// the old failure schedule).
func (p *Pack) SetFaultPlan(f *FaultPlan) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Dirty reports whether the pack has seen a mutation since it was
// last salvaged (or created). A pack that is dirty when mounted at
// boot was not shut down cleanly and must be salvaged before use.
func (p *Pack) Dirty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirty
}

// MarkClean clears the dirty flag; the volume salvager calls it after
// a successful repair pass.
func (p *Pack) MarkClean() {
	p.mu.Lock()
	p.dirty = false
	p.mu.Unlock()
}

// noteInjected emits a trace event for an injected fault; called with
// p.mu held.
func (p *Pack) noteInjected(op int64, err error) {
	if p.trace == nil {
		return
	}
	var class int64
	switch {
	case errors.Is(err, ErrCrashed):
		class = 2
	case errors.Is(err, ErrPermanent):
		class = 1
	}
	p.trace.Emit(trace.Event{Kind: trace.EvFaultInjected, Module: ModuleName, Arg0: op, Arg1: class})
}

// NewPack returns a mounted pack with the given identifier and record
// capacity, metering transfers onto meter (which may be nil).
func NewPack(id string, capacity int, meter *hw.CostMeter) *Pack {
	if capacity <= 0 {
		panic(fmt.Sprintf("disk: NewPack capacity = %d", capacity))
	}
	p := &Pack{
		id:       id,
		capacity: capacity,
		mounted:  true,
		data:     make(map[RecordAddr][]hw.Word),
		meter:    meter,
	}
	for r := capacity - 1; r >= 0; r-- {
		p.free = append(p.free, RecordAddr(r))
	}
	return p
}

// ID returns the pack identifier.
func (p *Pack) ID() string { return p.id }

// Capacity reports the total number of records.
func (p *Pack) Capacity() int { return p.capacity }

// FreeRecords reports the number of unallocated records.
func (p *Pack) FreeRecords() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// UsedRecords reports the number of allocated records.
func (p *Pack) UsedRecords() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

func (p *Pack) checkMounted() error {
	if !p.mounted {
		return fmt.Errorf("disk: pack %s is not mounted", p.id)
	}
	return nil
}

// AllocRecord allocates one record, returning ErrPackFull when none
// remain.
func (p *Pack) AllocRecord() (RecordAddr, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMounted(); err != nil {
		return 0, err
	}
	if err := p.faults.checkOp(OpAlloc, p.id, true); err != nil {
		p.noteInjected(int64(OpAlloc), err)
		return 0, err
	}
	if len(p.free) == 0 {
		return 0, ErrPackFull
	}
	p.dirty = true
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.used++
	return r, nil
}

// FreeRecord returns a record to the free list and discards its
// contents.
func (p *Pack) FreeRecord(r RecordAddr) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMounted(); err != nil {
		return err
	}
	if r < 0 || int(r) >= p.capacity {
		return fmt.Errorf("disk: record %d outside pack %s of %d records", r, p.id, p.capacity)
	}
	if err := p.faults.checkMutation(p.id); err != nil {
		p.noteInjected(-1, err)
		return err
	}
	p.dirty = true
	delete(p.data, r)
	p.free = append(p.free, r)
	p.used--
	return nil
}

// ClaimRecord removes the specific record r from the free list,
// allocating it in place. The volume salvager uses it to honour a
// file-map claim on a record that an interrupted operation left free;
// it is an error if r is not free.
func (p *Pack) ClaimRecord(r RecordAddr) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMounted(); err != nil {
		return err
	}
	if r < 0 || int(r) >= p.capacity {
		return fmt.Errorf("disk: record %d outside pack %s of %d records", r, p.id, p.capacity)
	}
	for i, f := range p.free {
		if f == r {
			p.dirty = true
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.used++
			return nil
		}
	}
	return fmt.Errorf("disk: record %d on pack %s is not free", r, p.id)
}

// FreeRecordList returns a copy of the free list; the volume salvager
// diffs it against the file-map claims.
func (p *Pack) FreeRecordList() []RecordAddr {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]RecordAddr(nil), p.free...)
}

// ReadRecord copies record r into dst (PageWords words). Reading a
// never-written record yields zeros.
func (p *Pack) ReadRecord(r RecordAddr, dst []hw.Word) error {
	// A record transfer is a yield point under the deterministic
	// executor: the schedule may preempt at every disk completion.
	schedsim.Yield(schedsim.PointDisk, "read")
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMounted(); err != nil {
		return err
	}
	if len(dst) != hw.PageWords {
		return fmt.Errorf("disk: ReadRecord buffer of %d words, want %d", len(dst), hw.PageWords)
	}
	if r < 0 || int(r) >= p.capacity {
		return fmt.Errorf("disk: record %d outside pack %s", r, p.id)
	}
	p.trace.BeginSpan(trace.SpanDiskRead, ModuleName, int64(r))
	defer p.trace.EndSpan(trace.SpanDiskRead)
	if err := p.faults.checkOp(OpRead, p.id, false); err != nil {
		p.noteInjected(int64(OpRead), err)
		return err
	}
	p.meter.Add(hw.CycDiskSeek + hw.CycDiskRecord)
	p.head = r
	if p.trace != nil {
		p.trace.Emit(trace.Event{Kind: trace.EvDiskRead, Module: ModuleName, Cost: hw.CycDiskSeek + hw.CycDiskRecord, Arg0: int64(r)})
	}
	if d, ok := p.data[r]; ok {
		copy(dst, d)
	} else {
		clear(dst)
	}
	return nil
}

// WriteRecord stores src (PageWords words) into record r.
func (p *Pack) WriteRecord(r RecordAddr, src []hw.Word) error {
	schedsim.Yield(schedsim.PointDisk, "write")
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMounted(); err != nil {
		return err
	}
	if len(src) != hw.PageWords {
		return fmt.Errorf("disk: WriteRecord buffer of %d words, want %d", len(src), hw.PageWords)
	}
	if r < 0 || int(r) >= p.capacity {
		return fmt.Errorf("disk: record %d outside pack %s", r, p.id)
	}
	p.trace.BeginSpan(trace.SpanDiskWrite, ModuleName, int64(r))
	defer p.trace.EndSpan(trace.SpanDiskWrite)
	if err := p.faults.checkOp(OpWrite, p.id, true); err != nil {
		p.noteInjected(int64(OpWrite), err)
		return err
	}
	p.dirty = true
	p.meter.Add(hw.CycDiskSeek + hw.CycDiskRecord)
	p.head = r
	if p.trace != nil {
		p.trace.Emit(trace.Event{Kind: trace.EvDiskWrite, Module: ModuleName, Cost: hw.CycDiskSeek + hw.CycDiskRecord, Arg0: int64(r)})
	}
	d, ok := p.data[r]
	if !ok {
		d = make([]hw.Word, hw.PageWords)
		p.data[r] = d
	}
	copy(d, src)
	return nil
}

// CreateEntry allocates a table-of-contents entry for a new segment
// with the given unique identifier. gov names, by unique identifier,
// the quota directory whose cell the segment's pages will charge
// (zero for a segment that never grows); recording it here is what
// keeps used-counts recomputable by the volume salvager.
func (p *Pack) CreateEntry(uid uint64, dir bool, gov uint64) (TOCIndex, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMounted(); err != nil {
		return 0, err
	}
	if err := p.faults.checkMutation(p.id); err != nil {
		p.noteInjected(-1, err)
		return 0, err
	}
	p.dirty = true
	for i := range p.toc {
		if !p.toc[i].live {
			p.toc[i] = TOCEntry{UID: uid, Dir: dir, Gov: gov, live: true}
			return TOCIndex(i), nil
		}
	}
	p.toc = append(p.toc, TOCEntry{UID: uid, Dir: dir, Gov: gov, live: true})
	return TOCIndex(len(p.toc) - 1), nil
}

// DeleteEntry removes a table-of-contents entry, freeing every record
// its file map holds.
func (p *Pack) DeleteEntry(idx TOCIndex) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, err := p.entry(idx)
	if err != nil {
		return err
	}
	if err := p.faults.checkMutation(p.id); err != nil {
		p.noteInjected(-1, err)
		return err
	}
	p.dirty = true
	for _, m := range e.Map {
		if m.State == PageStored {
			delete(p.data, m.Record)
			p.free = append(p.free, m.Record)
			p.used--
		}
	}
	*e = TOCEntry{}
	return nil
}

// DropEntry clears a table-of-contents entry without freeing the
// records its file map names. The volume salvager uses it to discard
// the losing copy of a duplicated entry: any records only that copy
// claimed become orphans, which the salvager's orphan scan then frees
// — freeing them here could double-free a record the surviving copy
// also claims.
func (p *Pack) DropEntry(idx TOCIndex) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, err := p.entry(idx)
	if err != nil {
		return err
	}
	if err := p.faults.checkMutation(p.id); err != nil {
		p.noteInjected(-1, err)
		return err
	}
	p.dirty = true
	*e = TOCEntry{}
	return nil
}

func (p *Pack) entry(idx TOCIndex) (*TOCEntry, error) {
	if idx < 0 || int(idx) >= len(p.toc) || !p.toc[idx].live {
		return nil, fmt.Errorf("disk: no table-of-contents entry %d on pack %s", idx, p.id)
	}
	return &p.toc[idx], nil
}

// Entry returns a copy of table-of-contents entry idx.
func (p *Pack) Entry(idx TOCIndex) (TOCEntry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, err := p.entry(idx)
	if err != nil {
		return TOCEntry{}, err
	}
	cp := *e
	cp.Map = append([]FileMapEntry(nil), e.Map...)
	return cp, nil
}

// MapEntries copies file-map entries page, page+1, ... of
// table-of-contents entry idx into dst, as many as the map holds and
// dst has room for, and reports how many it copied and the map's
// length. A fault reads the few entries it needs this way instead of
// copying the whole map.
func (p *Pack) MapEntries(idx TOCIndex, page int, dst []FileMapEntry) (n, mapLen int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, err := p.entry(idx)
	if err != nil {
		return 0, 0, err
	}
	if page >= 0 && page < len(e.Map) {
		n = copy(dst, e.Map[page:])
	}
	return n, len(e.Map), nil
}

// UpdateEntry applies fn to table-of-contents entry idx under the pack
// lock. If fn returns an error the entry keeps any changes fn already
// made; callers use this only for atomic read-modify-write.
func (p *Pack) UpdateEntry(idx TOCIndex, fn func(*TOCEntry) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, err := p.entry(idx)
	if err != nil {
		return err
	}
	if err := p.faults.checkMutation(p.id); err != nil {
		p.noteInjected(-1, err)
		return err
	}
	p.dirty = true
	return fn(e)
}

// EachEntry calls fn for every live table-of-contents entry with a
// copy of the entry.
func (p *Pack) EachEntry(fn func(TOCIndex, TOCEntry)) {
	p.mu.Lock()
	snapshot := make([]TOCEntry, len(p.toc))
	copy(snapshot, p.toc)
	p.mu.Unlock()
	for i, e := range snapshot {
		if e.live {
			cp := e
			cp.Map = append([]FileMapEntry(nil), e.Map...)
			fn(TOCIndex(i), cp)
		}
	}
}

// Entries reports the number of live table-of-contents entries.
func (p *Pack) Entries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.toc {
		if p.toc[i].live {
			n++
		}
	}
	return n
}

// Volumes is the disk volume control module: the registry of mounted
// packs. It is the lowest module of the file system proper.
type Volumes struct {
	mu     sync.Mutex
	packs  map[string]*Pack
	meter  *hw.CostMeter
	trace  *trace.Recorder
	faults *FaultPlan
}

// SetTrace routes record transfers on every pack — mounted now or
// added later — to rec.
func (v *Volumes) SetTrace(rec *trace.Recorder) {
	v.mu.Lock()
	v.trace = rec
	packs := make([]*Pack, 0, len(v.packs))
	for _, p := range v.packs {
		packs = append(packs, p)
	}
	v.mu.Unlock()
	for _, p := range packs {
		p.SetTrace(rec)
	}
}

// SetFaultPlan installs a fault plan on every pack — mounted now or
// added later — so the plan's step counters order all disk activity.
// Nil removes the plan: the reboot path.
func (v *Volumes) SetFaultPlan(f *FaultPlan) {
	v.mu.Lock()
	v.faults = f
	packs := make([]*Pack, 0, len(v.packs))
	for _, p := range v.packs {
		packs = append(packs, p)
	}
	v.mu.Unlock()
	for _, p := range packs {
		p.SetFaultPlan(f)
	}
}

// NewVolumes returns an empty volume registry.
func NewVolumes(meter *hw.CostMeter) *Volumes {
	return &Volumes{packs: make(map[string]*Pack), meter: meter}
}

// AddPack creates and mounts a new pack.
func (v *Volumes) AddPack(id string, capacity int) (*Pack, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.packs[id]; ok {
		return nil, fmt.Errorf("disk: pack %s already mounted", id)
	}
	p := NewPack(id, capacity, v.meter)
	p.SetTrace(v.trace)
	p.SetFaultPlan(v.faults)
	v.packs[id] = p
	return p, nil
}

// Pack returns the mounted pack with the given identifier.
func (v *Volumes) Pack(id string) (*Pack, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p, ok := v.packs[id]
	if !ok {
		return nil, fmt.Errorf("disk: no mounted pack %s", id)
	}
	return p, nil
}

// Mount returns a previously demounted pack to service under its own
// identifier: demountability is the point of keeping every page of a
// segment on one pack.
func (v *Volumes) Mount(p *Pack) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.packs[p.ID()]; ok {
		return fmt.Errorf("disk: pack %s already mounted", p.ID())
	}
	p.mu.Lock()
	p.mounted = true
	p.trace = v.trace
	p.faults = v.faults
	p.mu.Unlock()
	v.packs[p.ID()] = p
	return nil
}

// Demount removes a pack from the registry. Its contents survive in
// the returned Pack but no further transfers are honoured.
func (v *Volumes) Demount(id string) (*Pack, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p, ok := v.packs[id]
	if !ok {
		return nil, fmt.Errorf("disk: no mounted pack %s", id)
	}
	delete(v.packs, id)
	p.mu.Lock()
	p.mounted = false
	p.mu.Unlock()
	return p, nil
}

// Emptiest returns the mounted pack with the most free records,
// excluding the named pack; the segment-relocation path uses it to
// choose the destination after a full-pack exception. It returns an
// error when no other pack has free space.
func (v *Volumes) Emptiest(exclude string) (*Pack, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var ids []string
	for id := range v.packs {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic tie-break
	var best *Pack
	for _, id := range ids {
		p := v.packs[id]
		if id == exclude {
			continue
		}
		if best == nil || p.FreeRecords() > best.FreeRecords() {
			best = p
		}
	}
	if best == nil || best.FreeRecords() == 0 {
		return nil, fmt.Errorf("disk: no pack with free space (excluding %s)", exclude)
	}
	return best, nil
}

// Packs returns the identifiers of all mounted packs, sorted.
func (v *Volumes) Packs() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var ids []string
	for id := range v.packs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
