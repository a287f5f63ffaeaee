package hw

import (
	"fmt"
	"sync"
)

// A PTW is one page table word: the hardware descriptor for one page
// of one segment. Besides the usual present/frame/used/modified
// fields it carries the two bits the kernel design adds:
//
//   - Lock, set atomically by descriptor-lock hardware when a
//     missing-page fault is taken, so that a second processor
//     encountering the same descriptor takes a locked-descriptor
//     fault instead of re-servicing the fault; and
//
//   - QuotaTrap, the exception-causing bit software sets on the
//     descriptor of a never-before-used page, so that first touch
//     raises a quota exception above page control instead of a plain
//     missing-page fault inside it.
//
// Frame comes first so the five bits pack behind it: a PTW is 16 bytes,
// and a segment's 256-entry table 4 KiB.
type PTW struct {
	Frame     int
	Present   bool
	Lock      bool
	QuotaTrap bool
	Used      bool
	Modified  bool
}

// A PageTable is the array of page descriptors for one segment. The
// table itself conceptually lives in primary memory (in a core segment
// for permanently active segments, in a paged segment otherwise).
//
// A PageTable is safe for concurrent use by multiple simulated
// processors; the lock-bit operations are atomic with respect to
// translation, which is what the descriptor-lock hardware guarantees.
type PageTable struct {
	mu   sync.Mutex
	ptws []PTW
}

// NewPageTable returns a page table of n descriptors, all not-present.
func NewPageTable(n int) *PageTable {
	return &PageTable{ptws: make([]PTW, n)}
}

// NewPageTableOf returns a page table holding the given descriptors,
// built in one pass instead of a Set per entry. The table takes
// ownership of ptws.
func NewPageTableOf(ptws []PTW) *PageTable {
	return &PageTable{ptws: ptws}
}

// Len reports the number of page descriptors.
func (t *PageTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ptws)
}

// Get returns a copy of descriptor p.
func (t *PageTable) Get(p int) (PTW, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p < 0 || p >= len(t.ptws) {
		return PTW{}, fmt.Errorf("hw: page %d outside page table of %d entries", p, len(t.ptws))
	}
	return t.ptws[p], nil
}

// Set replaces descriptor p.
func (t *PageTable) Set(p int, w PTW) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p < 0 || p >= len(t.ptws) {
		return fmt.Errorf("hw: page %d outside page table of %d entries", p, len(t.ptws))
	}
	t.ptws[p] = w
	return nil
}

// Grow appends not-present descriptors until the table has n entries.
func (t *PageTable) Grow(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.ptws) < n {
		t.ptws = append(t.ptws, PTW{})
	}
}

// ResetFrom replaces every descriptor from page from to the end of the
// table with w, under one acquisition of the table lock.
func (t *PageTable) ResetFrom(from int, w PTW) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		return fmt.Errorf("hw: page %d outside page table of %d entries", from, len(t.ptws))
	}
	for p := from; p < len(t.ptws); p++ {
		t.ptws[p] = w
	}
	return nil
}

// Update applies fn to descriptor p under the table lock and reports
// the descriptor value fn produced.
func (t *PageTable) Update(p int, fn func(*PTW)) (PTW, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p < 0 || p >= len(t.ptws) {
		return PTW{}, fmt.Errorf("hw: page %d outside page table of %d entries", p, len(t.ptws))
	}
	fn(&t.ptws[p])
	return t.ptws[p], nil
}

// translate performs the hardware's page-level translation step for a
// reference to page p. It returns the current descriptor and, when the
// reference cannot complete, the fault kind. When lockHW is true
// (descriptor-lock hardware present) a missing-page encounter
// atomically sets the lock bit; locked reports whether this call was
// the one that set it.
func (t *PageTable) translate(p int, write, lockHW bool) (ptw PTW, kind FaultKind, fault, locked bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p < 0 || p >= len(t.ptws) {
		return PTW{}, FaultBounds, true, false
	}
	d := &t.ptws[p]
	switch {
	case d.Lock:
		return *d, FaultLockedDescriptor, true, false
	case d.QuotaTrap:
		return *d, FaultQuota, true, false
	case !d.Present:
		if lockHW {
			d.Lock = true
			return *d, FaultMissingPage, true, true
		}
		return *d, FaultMissingPage, true, false
	}
	d.Used = true
	if write {
		d.Modified = true
	}
	return *d, 0, false, false
}

// Unlock clears the lock bit of descriptor p. The page frame manager
// calls it when fault service is complete, before notifying waiters.
func (t *PageTable) Unlock(p int) error {
	_, err := t.Update(p, func(d *PTW) { d.Lock = false })
	return err
}

// AccessMode is the set of permitted reference types in a segment
// descriptor.
type AccessMode int

const (
	// Read permits load references.
	Read AccessMode = 1 << iota
	// Write permits store references.
	Write
	// Execute permits instruction fetch.
	Execute
)

// Has reports whether m includes all modes in want.
func (m AccessMode) Has(want AccessMode) bool { return m&want == want }

func (m AccessMode) String() string {
	b := []byte("---")
	if m.Has(Read) {
		b[0] = 'r'
	}
	if m.Has(Write) {
		b[1] = 'w'
	}
	if m.Has(Execute) {
		b[2] = 'e'
	}
	return string(b)
}

// An SDW is one segment descriptor word: presence, the page table,
// the permitted access modes, and the highest ring from which each
// mode is honoured (a simplified form of Multics ring brackets). Gate
// marks a descriptor that may be entered from outer rings by a gate
// call.
type SDW struct {
	Present bool
	Table   *PageTable
	Access  AccessMode
	// MaxRing is the highest (least privileged) ring number from
	// which the segment may be referenced at all.
	MaxRing int
	// WriteRing is the highest ring from which stores are honoured.
	WriteRing int
}

// A DescriptorTable is the array of segment descriptors defining one
// address space: the hardware indexes it by segment number. One
// descriptor table, stored in a core segment, defines the system
// (kernel) address space shared by all processors; another, stored in
// an ordinary segment, defines each user process's space.
type DescriptorTable struct {
	mu   sync.Mutex
	sdws []SDW
}

// NewDescriptorTable returns a descriptor table with room for n
// segment numbers.
func NewDescriptorTable(n int) *DescriptorTable {
	return &DescriptorTable{sdws: make([]SDW, n)}
}

// Len reports the number of segment-number slots.
func (dt *DescriptorTable) Len() int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return len(dt.sdws)
}

// Get returns a copy of the descriptor for segment number segno.
func (dt *DescriptorTable) Get(segno int) (SDW, error) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if segno < 0 || segno >= len(dt.sdws) {
		return SDW{}, fmt.Errorf("hw: segment number %d outside descriptor table of %d entries", segno, len(dt.sdws))
	}
	return dt.sdws[segno], nil
}

// Set installs the descriptor for segment number segno.
func (dt *DescriptorTable) Set(segno int, w SDW) error {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if segno < 0 || segno >= len(dt.sdws) {
		return fmt.Errorf("hw: segment number %d outside descriptor table of %d entries", segno, len(dt.sdws))
	}
	dt.sdws[segno] = w
	return nil
}

// Clear makes segment number segno not-present (disconnects the
// address space from the segment).
func (dt *DescriptorTable) Clear(segno int) error {
	return dt.Set(segno, SDW{})
}
