// Package salvage implements the volume salvager: the recovery
// companion to the storage design's robustness arguments.
//
// The paper keeps every page of a segment on one pack "for robustness
// and demountability", moves segments between packs by a multi-step
// update of two tables of contents, and binds quota cells statically
// so that used-counts stay recomputable. The salvager is where those
// properties pay off: after a crash, each pack's table of contents and
// free list — plus the governing-directory uid recorded in every entry
// — contain enough information to restore every invariant without any
// cross-pack log. Historical Multics ran exactly such a salvager at
// every boot after an unclean shutdown.
//
// Four classes of damage are repaired, in a fixed order so salvage is
// deterministic and idempotent:
//
//  1. Duplicate table-of-contents entries: an interrupted relocation
//     leaves the same segment uid on two packs. The copy with more
//     stored records is the survivor (relocation installs the new file
//     map only after every record is copied, so the incomplete copy is
//     recognizable); the loser is dropped without freeing records, and
//     anything only it claimed falls out as an orphan.
//
//  2. File-map claims on free records: a crash between freeing a
//     zero page's record and flagging the page zero leaves the map
//     claiming a record on the free list. The claim is honoured by
//     re-allocating the record in place (its contents read as zeros —
//     which is what the page held).
//
//  3. Duplicate claims and orphans: a record claimed by two file maps
//     is copied so each claimant has its own; an allocated record
//     claimed by no file map is returned to the free list.
//
//  4. Quota used-counts: every quota cell's count is recomputed as the
//     stored records of the segments bound to it (by the Gov uid in
//     their entries). Zero pages hold no records and are charged zero,
//     per the paper's accounting.
package salvage

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/trace"
)

// ModuleName is the salvager's name in the kernel dependency graph;
// its repair events are attributed to it.
const ModuleName = "volume-salvager"

// A RepairKind classifies one salvage repair.
type RepairKind int

const (
	// DuplicateEntry is an interrupted relocation's extra
	// table-of-contents entry, dropped in favour of the complete copy.
	DuplicateEntry RepairKind = iota
	// BadMapEntry is a file-map entry naming a record outside the
	// pack; the page reverts to unallocated.
	BadMapEntry
	// FreeClaimed is a record claimed by a file map but found on the
	// free list; the claim is honoured.
	FreeClaimed
	// DuplicateClaim is a record claimed by two file maps; the later
	// claimant receives its own copy.
	DuplicateClaim
	// OrphanFreed is an allocated record no file map claims, returned
	// to the free list.
	OrphanFreed
	// QuotaRecount is a quota cell whose used-count disagreed with a
	// fresh recount from the file maps.
	QuotaRecount
)

func (k RepairKind) String() string {
	switch k {
	case DuplicateEntry:
		return "duplicate-entry"
	case BadMapEntry:
		return "bad-map-entry"
	case FreeClaimed:
		return "free-claimed"
	case DuplicateClaim:
		return "duplicate-claim"
	case OrphanFreed:
		return "orphan-freed"
	case QuotaRecount:
		return "quota-recount"
	default:
		return fmt.Sprintf("repair(%d)", int(k))
	}
}

// A Finding is one repair, attributed to the pack it was made on, in
// the style of the audit package's findings.
type Finding struct {
	Pack   string
	Kind   RepairKind
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %v: %s", f.Pack, f.Kind, f.Detail)
}

// A Report is the result of one salvage pass.
type Report struct {
	// Packs are the packs salvaged, in the order they were scanned.
	Packs []string
	// Findings is every repair made, in repair order. An empty list
	// means the packs were already consistent.
	Findings []Finding
}

// Clean reports whether salvage found nothing to repair.
func (r Report) Clean() bool { return len(r.Findings) == 0 }

func (r Report) String() string {
	var b strings.Builder
	if len(r.Packs) == 0 {
		b.WriteString("salvage: no dirty packs\n")
		return b.String()
	}
	fmt.Fprintf(&b, "salvage: %s\n", strings.Join(r.Packs, ", "))
	if r.Clean() {
		b.WriteString("no repairs: tables of contents, free lists and quota cells consistent\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d repairs:\n", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "    %s\n", f)
	}
	return b.String()
}

// Run salvages every dirty mounted pack (every mounted pack when force
// is set) and returns the repair report. The pass is deterministic —
// packs, entries and records are scanned in sorted order — and
// idempotent: a second pass over the same packs repairs nothing.
//
// The recount of quota cells assumes the full configuration is
// mounted: a cell's governed segments are found by the Gov uid in
// their entries, wherever they live. Repair events are emitted to tr
// (which may be nil) as trace.EvSalvageRepair.
func Run(vols *disk.Volumes, tr *trace.Recorder, force bool) (Report, error) {
	var r Report
	inSet := make(map[string]bool)
	for _, id := range vols.Packs() {
		p, err := vols.Pack(id)
		if err != nil {
			return r, err
		}
		if force || p.Dirty() {
			inSet[id] = true
		}
	}
	if len(inSet) == 0 {
		return r, nil
	}

	emit := func(kind RepairKind, pack string, a1, a2 int64, format string, args ...any) {
		r.Findings = append(r.Findings, Finding{Pack: pack, Kind: kind, Detail: fmt.Sprintf(format, args...)})
		if tr != nil {
			tr.Emit(trace.Event{Kind: trace.EvSalvageRepair, Module: ModuleName, Arg0: int64(kind), Arg1: a1, Arg2: a2})
		}
	}

	// Phase 1: duplicate table-of-contents entries, resolved across
	// every mounted pack (an interrupted relocation's pair always
	// spans two packs). The winner is the copy with the most stored
	// records; ties break to the lexically first (pack, index), so two
	// complete copies resolve the same way every run.
	type entryRef struct {
		pack    string
		idx     disk.TOCIndex
		records int
	}
	byUID := make(map[uint64][]entryRef)
	for _, id := range vols.Packs() {
		p, err := vols.Pack(id)
		if err != nil {
			return r, err
		}
		p.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
			byUID[e.UID] = append(byUID[e.UID], entryRef{pack: id, idx: idx, records: e.Records()})
		})
	}
	uids := make([]uint64, 0, len(byUID))
	for uid := range byUID {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	for _, uid := range uids {
		refs := byUID[uid]
		if len(refs) < 2 {
			continue
		}
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].records != refs[j].records {
				return refs[i].records > refs[j].records
			}
			if refs[i].pack != refs[j].pack {
				return refs[i].pack < refs[j].pack
			}
			return refs[i].idx < refs[j].idx
		})
		winner := refs[0]
		for _, loser := range refs[1:] {
			p, err := vols.Pack(loser.pack)
			if err != nil {
				return r, err
			}
			// Drop, not delete: records shared with nothing are
			// freed by the orphan scan; deleting here could not know
			// which records the interrupted operation really owned.
			if err := p.DropEntry(loser.idx); err != nil {
				return r, err
			}
			inSet[loser.pack] = true
			emit(DuplicateEntry, loser.pack, int64(uid), int64(loser.idx),
				"segment %d duplicated; kept %s:%d (%d records), dropped %s:%d (%d records)",
				uid, winner.pack, winner.idx, winner.records, loser.pack, loser.idx, loser.records)
		}
	}

	r.Packs = make([]string, 0, len(inSet))
	for id := range inSet {
		r.Packs = append(r.Packs, id)
	}
	sort.Strings(r.Packs)

	// Phase 2, per pack: reconcile file-map claims with the record
	// allocation state.
	for _, id := range r.Packs {
		p, err := vols.Pack(id)
		if err != nil {
			return r, err
		}
		type claim struct {
			idx  disk.TOCIndex
			page int
		}
		claims := make(map[disk.RecordAddr][]claim)
		var bad []claim
		p.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
			for pg, fm := range e.Map {
				if fm.State != disk.PageStored {
					continue
				}
				if fm.Record < 0 || int(fm.Record) >= p.Capacity() {
					bad = append(bad, claim{idx: idx, page: pg})
					continue
				}
				claims[fm.Record] = append(claims[fm.Record], claim{idx: idx, page: pg})
			}
		})
		for _, c := range bad {
			if err := p.UpdateEntry(c.idx, func(e *disk.TOCEntry) error {
				e.Map[c.page] = disk.FileMapEntry{State: disk.PageUnallocated}
				return nil
			}); err != nil {
				return r, err
			}
			emit(BadMapEntry, id, int64(c.idx), int64(c.page),
				"entry %d page %d named a record outside the pack; page reverts to unallocated", c.idx, c.page)
		}

		free := make(map[disk.RecordAddr]bool)
		for _, rec := range p.FreeRecordList() {
			free[rec] = true
		}
		recs := make([]disk.RecordAddr, 0, len(claims))
		for rec := range claims {
			recs = append(recs, rec)
			cl := claims[rec]
			sort.Slice(cl, func(i, j int) bool {
				if cl[i].idx != cl[j].idx {
					return cl[i].idx < cl[j].idx
				}
				return cl[i].page < cl[j].page
			})
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i] < recs[j] })
		// Honour every claim on a free record first, so that the
		// allocations below can never hand a claimed record out
		// again. The map's claim wins over the free list: the only
		// path that frees a still-claimed record is the zero page
		// removal, and a freed record reads as zeros — exactly what
		// that page held.
		for _, rec := range recs {
			if !free[rec] {
				continue
			}
			if err := p.ClaimRecord(rec); err != nil {
				return r, err
			}
			delete(free, rec)
			cl := claims[rec]
			emit(FreeClaimed, id, int64(rec), int64(cl[0].idx),
				"record %d claimed by entry %d page %d but free; claim honoured", rec, cl[0].idx, cl[0].page)
		}
		buf := make([]hw.Word, hw.PageWords)
		claimed := make(map[disk.RecordAddr]bool)
		for _, rec := range recs {
			cl := claims[rec]
			claimed[rec] = true
			// Duplicate claims: the first claimant keeps the record,
			// every other gets its own copy of the contents.
			for _, extra := range cl[1:] {
				newRec, err := p.AllocRecord()
				if errors.Is(err, disk.ErrPackFull) {
					if uerr := p.UpdateEntry(extra.idx, func(e *disk.TOCEntry) error {
						e.Map[extra.page] = disk.FileMapEntry{State: disk.PageUnallocated}
						return nil
					}); uerr != nil {
						return r, uerr
					}
					emit(DuplicateClaim, id, int64(rec), int64(extra.idx),
						"record %d claimed by entries %d and %d; pack full, entry %d page %d reverts to unallocated",
						rec, cl[0].idx, extra.idx, extra.idx, extra.page)
					continue
				}
				if err != nil {
					return r, err
				}
				if err := p.ReadRecord(rec, buf); err != nil {
					return r, err
				}
				if err := p.WriteRecord(newRec, buf); err != nil {
					return r, err
				}
				if err := p.UpdateEntry(extra.idx, func(e *disk.TOCEntry) error {
					e.Map[extra.page].Record = newRec
					return nil
				}); err != nil {
					return r, err
				}
				claimed[newRec] = true
				delete(free, newRec)
				emit(DuplicateClaim, id, int64(rec), int64(newRec),
					"record %d claimed by entries %d and %d; entry %d page %d copied to record %d",
					rec, cl[0].idx, extra.idx, extra.idx, extra.page, newRec)
			}
		}
		// Orphans: allocated records no file map claims.
		for rec := disk.RecordAddr(0); int(rec) < p.Capacity(); rec++ {
			if free[rec] || claimed[rec] {
				continue
			}
			if err := p.FreeRecord(rec); err != nil {
				return r, err
			}
			emit(OrphanFreed, id, int64(rec), 0, "record %d allocated but unreachable from any file map; freed", rec)
		}
	}

	// Phase 3: recompute quota used-counts. Each entry's Gov uid names
	// the quota directory its pages charge; summing stored records per
	// governing uid across every mounted pack rebuilds each cell's
	// count from scratch. Zero pages hold no records: charged zero.
	govUsed := make(map[uint64]int)
	for _, id := range vols.Packs() {
		p, err := vols.Pack(id)
		if err != nil {
			return r, err
		}
		p.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
			if e.Gov != 0 {
				govUsed[e.Gov] += e.Records()
			}
		})
	}
	for _, id := range r.Packs {
		p, err := vols.Pack(id)
		if err != nil {
			return r, err
		}
		type fix struct {
			idx  disk.TOCIndex
			uid  uint64
			had  int
			want int
		}
		var fixes []fix
		p.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
			if !e.Quota.Valid {
				return
			}
			if want := govUsed[e.UID]; e.Quota.Used != want {
				fixes = append(fixes, fix{idx: idx, uid: e.UID, had: e.Quota.Used, want: want})
			}
		})
		for _, f := range fixes {
			if err := p.UpdateEntry(f.idx, func(e *disk.TOCEntry) error {
				e.Quota.Used = f.want
				return nil
			}); err != nil {
				return r, err
			}
			emit(QuotaRecount, id, int64(f.uid), int64(f.want),
				"quota cell of directory %d recorded %d pages used; recount says %d", f.uid, f.had, f.want)
		}
	}

	// The repairs themselves dirtied the packs; clean flags are the
	// last thing written, mirroring a real salvager's completion mark.
	for _, id := range r.Packs {
		p, err := vols.Pack(id)
		if err != nil {
			return r, err
		}
		p.MarkClean()
	}
	return r, nil
}
