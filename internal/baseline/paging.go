package baseline

import (
	"errors"
	"fmt"

	"multics/internal/disk"
	"multics/internal/hw"
)

// activate enters a segment in the AST. Because quota lives in
// directory entries found by climbing the AST, every superior
// directory must be (and remain) active: activation recurses upward
// and bumps inferior counts — the hierarchy constraint the redesign
// removed. Caller holds s.mu.
func (s *Supervisor) activate(e *entry) (*aste, error) {
	if a, ok := s.ast[e.uid]; ok {
		return a, nil
	}
	var parent *aste
	if e.parent != nil {
		var err error
		parent, err = s.activate(e.parent.self)
		if err != nil {
			return nil, err
		}
	}
	pack, err := s.Vols.Pack(e.addr.Pack)
	if err != nil {
		return nil, err
	}
	te, err := pack.Entry(e.addr.TOC)
	if err != nil {
		return nil, err
	}
	// No exception-causing bit on this hardware: every non-resident
	// page is a plain missing-page fault, and page control reads the
	// file map to discover whether the touch is really a growth.
	pt := hw.NewPageTable(MaxPages, false)
	a := &aste{uid: e.uid, ent: e, pt: pt, parent: parent, mapLen: len(te.Map)}
	if parent != nil {
		parent.inferior++
	}
	s.ast[e.uid] = a
	return a, nil
}

// Deactivate removes a segment from the AST, flushing its pages. A
// directory with active inferiors cannot be deactivated: the quota
// search must always find the superior chain in the AST.
func (s *Supervisor) Deactivate(uid uint64) error {
	s.mu.Lock()
	a, ok := s.ast[uid]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("baseline: segment %d not active", uid)
	}
	if a.inferior > 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d active", ErrActiveInferiors, a.inferior)
	}
	s.mu.Unlock()
	if err := s.flushSegment(a); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range a.conns {
		_ = c.dt.Clear(c.segno)
	}
	if a.parent != nil {
		a.parent.inferior--
	}
	delete(s.ast, uid)
	return nil
}

// CreateProcess makes a baseline process.
func (s *Supervisor) CreateProcess(principal string) *Process {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &Process{
		id:        s.nextPID,
		principal: principal,
		dt:        hw.NewDescriptorTable(64),
		segs:      make(map[int]*aste),
		next:      8,
		ready:     true,
	}
	s.nextPID++
	s.procs[p.id] = p
	s.ready = append(s.ready, p.id)
	return p
}

// Open resolves a path inside the supervisor, activates the segment,
// and connects it to the process's address space.
func (s *Supervisor) Open(p *Process, path string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.resolveLocked(p.principal, path)
	if err != nil {
		return 0, err
	}
	mode := aclModeFor(e, p.principal)
	if mode == 0 {
		return 0, ErrNoAccess
	}
	a, err := s.activate(e)
	if err != nil {
		return 0, err
	}
	segno := p.next
	p.next++
	p.segs[segno] = a
	if err := p.dt.Set(segno, hw.SDW{
		Present: true, Table: a.pt, Access: mode,
		MaxRing: hw.UserRing, WriteRing: hw.UserRing,
	}); err != nil {
		return 0, err
	}
	a.conns = append(a.conns, conn{dt: p.dt, segno: segno})
	return segno, nil
}

// Read performs a user load with baseline fault handling.
func (s *Supervisor) Read(cpu *hw.Processor, p *Process, segno, off int) (hw.Word, error) {
	return s.access(cpu, p, segno, off, false, 0)
}

// Write performs a user store with baseline fault handling.
func (s *Supervisor) Write(cpu *hw.Processor, p *Process, segno, off int, w hw.Word) error {
	_, err := s.access(cpu, p, segno, off, true, w)
	return err
}

// Attach binds a process's address space to a CPU.
func (s *Supervisor) Attach(cpu *hw.Processor, p *Process) {
	cpu.UserDT = p.dt
	cpu.Ring = hw.UserRing
}

func (s *Supervisor) access(cpu *hw.Processor, p *Process, segno, off int, write bool, w hw.Word) (hw.Word, error) {
	const maxFaults = 64
	for tries := 0; tries < maxFaults; tries++ {
		var val hw.Word
		var err error
		if write {
			err = cpu.Write(segno, off, w)
		} else {
			val, err = cpu.Read(segno, off)
		}
		if err == nil {
			return val, nil
		}
		f, ok := hw.AsFault(err)
		if !ok {
			return 0, err
		}
		if f.Kind != hw.FaultMissingPage {
			return 0, err
		}
		if herr := s.handleMissingPage(cpu, p, f); herr != nil {
			return 0, herr
		}
	}
	return 0, fmt.Errorf("baseline: reference at segment %d offset %d made no progress", segno, off)
}

// handleMissingPage is 1974 page control: capture the global lock,
// interpretively retranslate the faulting address (the hardware window
// means another processor may have serviced the fault or changed the
// tables), classify the touch by reading segment control's file map,
// and service it — walking the AST upward for quota if the segment
// must grow, and reaching directly into the directory entry if the
// pack is full.
func (s *Supervisor) handleMissingPage(cpu *hw.Processor, p *Process, f *hw.Fault) error {
	s.global.Lock()
	defer s.global.Unlock()

	// Interpretive retranslation: page control re-walks the
	// translation tables (address space control's and segment
	// control's data) to see whether the descriptor that faulted is
	// still the one in effect.
	s.mu.Lock()
	s.Retranslations++
	s.mu.Unlock()
	s.Meter.AddBody(bodyRetranslate, hw.ASM)
	s.Meter.Add(2 * hw.CycTableWalk)
	a, ok := p.segs[f.Seg]
	if !ok {
		return fmt.Errorf("baseline: fault in unknown segment %d", f.Seg)
	}
	d, err := a.pt.Get(f.Page)
	if err != nil {
		return err
	}
	if d.Present {
		return nil // another processor got here first
	}

	s.Meter.AddBody(bodyFaultService, hw.ASM)
	pack, err := s.Vols.Pack(a.ent.addr.Pack)
	if err != nil {
		return err
	}
	te, err := pack.Entry(a.ent.addr.TOC)
	if err != nil {
		return err
	}
	if f.Page < len(te.Map) && te.Map[f.Page].State == disk.PageStored {
		// An ordinary missing page: read the record in.
		frame, err := s.obtainFrame()
		if err != nil {
			return err
		}
		buf := make([]hw.Word, hw.PageWords)
		if err := pack.ReadRecord(te.Map[f.Page].Record, buf); err != nil {
			return err
		}
		if err := s.Mem.WriteFrame(frame, buf); err != nil {
			return err
		}
		s.installFrame(a, f.Page, frame)
		return nil
	}
	// A never-before-used (or zero) page: segment growth. Page
	// control locates the nearest superior quota directory by
	// following AST links upward — the dependency on segment
	// control's data, and on the AST mirroring the hierarchy.
	if f.Page >= MaxPages {
		return fmt.Errorf("baseline: page %d beyond maximum", f.Page)
	}
	qd, hops := s.findQuotaDir(a)
	s.mu.Lock()
	s.QuotaWalkHops += int64(hops)
	s.mu.Unlock()
	s.Meter.AddBody(int64(hops)*bodyQuotaHop, hw.ASM)
	if qd == nil {
		return errors.New("baseline: no superior quota directory")
	}
	if qd.quotaUsed+1 > qd.quotaLimit {
		return fmt.Errorf("%w: %d/%d at %s", ErrQuotaExceeded, qd.quotaUsed, qd.quotaLimit, qd.name)
	}
	rec, err := pack.AllocRecord()
	if errors.Is(err, disk.ErrPackFull) {
		// Full pack: segment control moves the segment, reading
		// address space control's data to find the directory entry
		// and updating it directly.
		if err := s.relocate(a); err != nil {
			return err
		}
		pack, err = s.Vols.Pack(a.ent.addr.Pack)
		if err != nil {
			return err
		}
		rec, err = pack.AllocRecord()
		if err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	qd.quotaUsed++
	if err := pack.UpdateEntry(a.ent.addr.TOC, func(e *disk.TOCEntry) error {
		for len(e.Map) <= f.Page {
			e.Map = append(e.Map, disk.FileMapEntry{State: disk.PageUnallocated})
		}
		e.Map[f.Page] = disk.FileMapEntry{State: disk.PageStored, Record: rec}
		return nil
	}); err != nil {
		return err
	}
	if f.Page+1 > a.mapLen {
		a.mapLen = f.Page + 1
	}
	frame, err := s.obtainFrame()
	if err != nil {
		return err
	}
	if err := s.Mem.ZeroFrame(frame); err != nil {
		return err
	}
	s.installFrame(a, f.Page, frame)
	return nil
}

// findQuotaDir climbs the AST parent links to the nearest superior
// quota directory (possibly the segment's own entry for a quota
// directory), counting the hops the dynamic search costs.
func (s *Supervisor) findQuotaDir(a *aste) (*entry, int) {
	hops := 0
	for cur := a; cur != nil; cur = cur.parent {
		hops++
		if cur.ent.isQuotaDir {
			return cur.ent, hops
		}
	}
	return nil, hops
}

func (s *Supervisor) installFrame(a *aste, page, frame int) {
	s.mu.Lock()
	s.frames[frame-s.firstFrame] = frameInfo{inUse: true, a: a, page: page}
	s.faults++
	s.mu.Unlock()
	_, _ = a.pt.Update(page, func(d *hw.PTW) {
		d.Present = true
		d.Frame = frame
		d.Used = true
	})
}

// obtainFrame returns a free frame, evicting inline if necessary —
// the single-process organization the redesign replaced with
// dedicated daemons.
func (s *Supervisor) obtainFrame() (int, error) {
	s.mu.Lock()
	if len(s.free) > 0 {
		f := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.mu.Unlock()
		return f, nil
	}
	n := len(s.frames)
	victim := -1
	for pass := 0; pass < 2*n && victim < 0; pass++ {
		i := s.clock
		s.clock = (s.clock + 1) % n
		fi := &s.frames[i]
		if !fi.inUse {
			continue
		}
		d, err := fi.a.pt.Get(fi.page)
		if err != nil {
			s.mu.Unlock()
			return 0, err
		}
		if d.Used {
			_, _ = fi.a.pt.Update(fi.page, func(w *hw.PTW) { w.Used = false })
			continue
		}
		victim = i
	}
	if victim < 0 {
		for i := range s.frames {
			if s.frames[i].inUse {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		s.mu.Unlock()
		return 0, errors.New("baseline: no evictable frame")
	}
	info := s.frames[victim]
	s.frames[victim] = frameInfo{}
	s.evictions++
	s.mu.Unlock()

	frame := s.firstFrame + victim
	if err := s.writeBack(info, frame); err != nil {
		return 0, err
	}
	return frame, nil
}

// writeBack persists an evicted page inline, with the zero-page scan
// (and its quota decrement, which costs another upward walk).
func (s *Supervisor) writeBack(info frameInfo, frame int) error {
	zero, err := s.Mem.FrameIsZero(frame)
	if err != nil {
		return err
	}
	if _, err := info.a.pt.Update(info.page, func(d *hw.PTW) {
		d.Present = false
		d.Frame = 0
	}); err != nil {
		return err
	}
	pack, err := s.Vols.Pack(info.a.ent.addr.Pack)
	if err != nil {
		return err
	}
	te, err := pack.Entry(info.a.ent.addr.TOC)
	if err != nil {
		return err
	}
	if info.page >= len(te.Map) || te.Map[info.page].State != disk.PageStored {
		return nil
	}
	rec := te.Map[info.page].Record
	if zero {
		if err := pack.FreeRecord(rec); err != nil {
			return err
		}
		if err := pack.UpdateEntry(info.a.ent.addr.TOC, func(e *disk.TOCEntry) error {
			e.Map[info.page] = disk.FileMapEntry{State: disk.PageZero}
			return nil
		}); err != nil {
			return err
		}
		qd, hops := s.findQuotaDir(info.a)
		s.mu.Lock()
		s.QuotaWalkHops += int64(hops)
		s.mu.Unlock()
		s.Meter.AddBody(int64(hops)*bodyQuotaHop, hw.ASM)
		if qd != nil && qd.quotaUsed > 0 {
			qd.quotaUsed--
		}
		return nil
	}
	buf := make([]hw.Word, hw.PageWords)
	if err := s.Mem.ReadFrame(frame, buf); err != nil {
		return err
	}
	return pack.WriteRecord(rec, buf)
}

// flushSegment evicts every resident page of a segment.
func (s *Supervisor) flushSegment(a *aste) error {
	for {
		s.mu.Lock()
		idx := -1
		for i := range s.frames {
			if s.frames[i].inUse && s.frames[i].a == a {
				idx = i
				break
			}
		}
		if idx < 0 {
			s.mu.Unlock()
			return nil
		}
		info := s.frames[idx]
		s.frames[idx] = frameInfo{}
		s.evictions++
		s.mu.Unlock()
		if err := s.writeBack(info, s.firstFrame+idx); err != nil {
			return err
		}
		s.mu.Lock()
		s.free = append(s.free, s.firstFrame+idx)
		s.mu.Unlock()
	}
}

// relocate moves a segment whose pack filled to the emptiest pack.
// In the baseline structure this is segment control reaching into the
// directory entry (address space control's and directory control's
// data) and updating it in place.
func (s *Supervisor) relocate(a *aste) error {
	if err := s.flushSegment(a); err != nil {
		return err
	}
	oldPack, err := s.Vols.Pack(a.ent.addr.Pack)
	if err != nil {
		return err
	}
	newPack, err := s.Vols.Emptiest(a.ent.addr.Pack)
	if err != nil {
		return err
	}
	te, err := oldPack.Entry(a.ent.addr.TOC)
	if err != nil {
		return err
	}
	newIdx, err := newPack.CreateEntry(a.uid, a.ent.isDir, te.Gov)
	if err != nil {
		return err
	}
	buf := make([]hw.Word, hw.PageWords)
	newMap := make([]disk.FileMapEntry, len(te.Map))
	for i, fm := range te.Map {
		newMap[i] = fm
		if fm.State != disk.PageStored {
			continue
		}
		rec, err := newPack.AllocRecord()
		if err != nil {
			return err
		}
		if err := oldPack.ReadRecord(fm.Record, buf); err != nil {
			return err
		}
		if err := newPack.WriteRecord(rec, buf); err != nil {
			return err
		}
		newMap[i].Record = rec
	}
	if err := newPack.UpdateEntry(newIdx, func(e *disk.TOCEntry) error {
		e.Map = newMap
		return nil
	}); err != nil {
		return err
	}
	if err := oldPack.DeleteEntry(a.ent.addr.TOC); err != nil {
		return err
	}
	// The direct directory-entry update.
	a.ent.addr = disk.SegAddr{Pack: newPack.ID(), TOC: newIdx}
	return nil
}

// Dispatch runs the one-level scheduler: pop the longest-waiting
// ready process and bind it (state swap through the paged store).
func (s *Supervisor) Dispatch() (*Process, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ready) > 0 {
		pid := s.ready[0]
		s.ready = s.ready[1:]
		p := s.procs[pid]
		if p != nil && p.ready {
			p.ready = false
			s.swaps++
			s.Meter.Add(hw.CycProcessSwap + hw.CycDispatch)
			return p, nil
		}
	}
	return nil, errors.New("baseline: no ready process")
}

// Preempt returns a process to the ready queue.
func (s *Supervisor) Preempt(p *Process) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p.ready = true
	s.ready = append(s.ready, p.id)
	s.swaps++
	s.Meter.Add(hw.CycProcessSwap)
}

// RunQuantum dispatches up to n processes round-robin.
func (s *Supervisor) RunQuantum(n int, body func(*Process)) (int, error) {
	ran := 0
	for i := 0; i < n; i++ {
		p, err := s.Dispatch()
		if err != nil {
			break
		}
		if body != nil {
			body(p)
			p.cpu++
		}
		s.Preempt(p)
		ran++
	}
	return ran, nil
}
