package hw

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
// Frame comes first so the five bits pack behind it: a PTW is 16 bytes.
// A page table materializes descriptors only up to the highest page
// ever set (see PageTable), so a one-page segment's table costs one
// PTW, not 256.
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
// The table has a logical length of n descriptors, but only a prefix
// of them is materialized: every page at or past len(ptws) reads as
// the single descriptor past. Writing such a page (Set, Update, or a
// translation that sets a bit) first extends the prefix to it. This
// is the simulation's counterpart of the Multics AST's page-table
// pools of 4, 16, 64 and 256 descriptors: a small segment does not pay
// for the architectural maximum.
//
// A PageTable is safe for concurrent use by multiple simulated
// processors; the lock-bit operations are atomic with respect to
// translation, which is what the descriptor-lock hardware guarantees.
//
// A table may be reset and reused for another segment (see Reload).
// Its generation, bumped by every reset, tells the incarnations apart:
// the associative memory tags each cached translation with it, so an
// entry filled before a reset never hits after it.
type PageTable struct {
	mu   sync.Mutex
	n    int
	ptws []PTW
	past PTW
	gen  atomic.Uint64
}

// NewPageTable returns a page table of n descriptors, all not-present.
func NewPageTable(n int) *PageTable {
	return &PageTable{n: n}
}

// Reload resets the table for a new incarnation: its generation moves
// on, its first n descriptors become desc(0) .. desc(n-1), and the rest
// read as past, built in one pass instead of a Set per entry. The
// materialized prefix keeps its backing, so a table reloaded to a
// length it has held before allocates nothing. The caller guarantees
// that no processor still translates through, or updates, the old
// incarnation.
func (t *PageTable) Reload(n int, desc func(p int) PTW, past PTW) {
	if n > t.n {
		panic(fmt.Sprintf("hw: %d descriptors for a page table of %d entries", n, t.n))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen.Add(1)
	t.ptws = slices.Grow(t.ptws[:0], n)
	for p := 0; p < n; p++ {
		t.ptws = append(t.ptws, desc(p))
	}
	t.past = past
}

// Gen reports the table's generation: the number of resets so far.
func (t *PageTable) Gen() uint64 { return t.gen.Load() }

// Len reports the number of page descriptors, fixed at construction.
func (t *PageTable) Len() int { return t.n }

func (t *PageTable) outside(p int) error {
	return fmt.Errorf("hw: page %d outside page table of %d entries", p, t.n)
}

// at returns descriptor p, which must be in range. Caller holds t.mu.
func (t *PageTable) at(p int) PTW {
	if p < len(t.ptws) {
		return t.ptws[p]
	}
	return t.past
}

// ref extends the materialized prefix through page p, which must be in
// range, and returns its descriptor. Caller holds t.mu.
func (t *PageTable) ref(p int) *PTW {
	if p >= len(t.ptws) {
		t.ptws = slices.Grow(t.ptws, p+1-len(t.ptws))
		for len(t.ptws) <= p {
			t.ptws = append(t.ptws, t.past)
		}
	}
	return &t.ptws[p]
}

// Get returns a copy of descriptor p.
func (t *PageTable) Get(p int) (PTW, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p < 0 || p >= t.n {
		return PTW{}, t.outside(p)
	}
	return t.at(p), nil
}

// Set replaces descriptor p.
func (t *PageTable) Set(p int, w PTW) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p < 0 || p >= t.n {
		return t.outside(p)
	}
	*t.ref(p) = w
	return nil
}

// ResetFrom replaces every descriptor from page from to the end of the
// table with w, under one acquisition of the table lock. The prefix is
// cut back to from, so the reset pages cost nothing.
func (t *PageTable) ResetFrom(from int, w PTW) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		return t.outside(from)
	}
	if from >= t.n {
		return nil
	}
	switch {
	case from < len(t.ptws):
		t.ptws = t.ptws[:from]
	case from > len(t.ptws) && w != t.past:
		// The pages between the prefix and from keep their old value.
		t.ref(from - 1)
	}
	t.past = w
	return nil
}

// Update applies fn to descriptor p under the table lock and reports
// the descriptor value fn produced.
func (t *PageTable) Update(p int, fn func(*PTW)) (PTW, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p < 0 || p >= t.n {
		return PTW{}, t.outside(p)
	}
	d := t.ref(p)
	fn(d)
	return *d, nil
}

// translate performs the hardware's page-level translation step for a
// reference to page p. It returns the current descriptor and, when the
// reference cannot complete, the fault kind. When lockHW is true
// (descriptor-lock hardware present) a missing-page encounter
// atomically sets the lock bit; locked reports whether this call was
// the one that set it. A fault that sets no bit leaves the
// materialized prefix as it was.
func (t *PageTable) translate(p int, write, lockHW bool) (ptw PTW, kind FaultKind, fault, locked bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p < 0 || p >= t.n {
		return PTW{}, FaultBounds, true, false
	}
	d := t.at(p)
	switch {
	case d.Lock:
		return d, FaultLockedDescriptor, true, false
	case d.QuotaTrap:
		return d, FaultQuota, true, false
	case !d.Present:
		if lockHW {
			t.ref(p).Lock = true
			d.Lock = true
			return d, FaultMissingPage, true, true
		}
		return d, FaultMissingPage, true, false
	}
	r := t.ref(p)
	r.Used = true
	if write {
		r.Modified = true
	}
	return *r, 0, false, false
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
//
// Like a PageTable, it has a logical length of n slots and materializes
// only the prefix up to the highest slot ever set; every slot past it
// reads as SDW{}, not present.
//
// Like a PageTable, a descriptor table may be reset and reused for
// another address space (Reset); its generation tells the
// incarnations apart.
type DescriptorTable struct {
	mu   sync.Mutex
	n    int
	sdws []SDW
	gen  atomic.Uint64
}

// NewDescriptorTable returns a descriptor table with room for n
// segment numbers.
func NewDescriptorTable(n int) *DescriptorTable {
	return &DescriptorTable{n: n}
}

// Len reports the number of segment-number slots, fixed at
// construction.
func (dt *DescriptorTable) Len() int { return dt.n }

// Reset makes every slot not present and moves the generation on, so
// the table can define a new address space. The materialized prefix
// keeps its backing. The caller guarantees no processor still
// translates through the old incarnation.
func (dt *DescriptorTable) Reset() {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.gen.Add(1)
	clear(dt.sdws)
	dt.sdws = dt.sdws[:0]
}

// Gen reports the table's generation: the number of resets so far.
func (dt *DescriptorTable) Gen() uint64 { return dt.gen.Load() }

func (dt *DescriptorTable) outside(segno int) error {
	return fmt.Errorf("hw: segment number %d outside descriptor table of %d entries", segno, dt.n)
}

// Get returns a copy of the descriptor for segment number segno.
func (dt *DescriptorTable) Get(segno int) (SDW, error) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if segno < 0 || segno >= dt.n {
		return SDW{}, dt.outside(segno)
	}
	if segno < len(dt.sdws) {
		return dt.sdws[segno], nil
	}
	return SDW{}, nil
}

// Set installs the descriptor for segment number segno.
func (dt *DescriptorTable) Set(segno int, w SDW) error {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if segno < 0 || segno >= dt.n {
		return dt.outside(segno)
	}
	if segno >= len(dt.sdws) {
		if w == (SDW{}) {
			return nil
		}
		dt.sdws = append(dt.sdws, make([]SDW, segno+1-len(dt.sdws))...)
	}
	dt.sdws[segno] = w
	return nil
}

// Clear makes segment number segno not-present (disconnects the
// address space from the segment).
func (dt *DescriptorTable) Clear(segno int) error {
	return dt.Set(segno, SDW{})
}

// ClearGen is Clear for the table's incarnation gen: a table reset
// since then defines another address space, which keeps its
// descriptor.
func (dt *DescriptorTable) ClearGen(segno int, gen uint64) error {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if segno < 0 || segno >= dt.n {
		return dt.outside(segno)
	}
	if dt.gen.Load() == gen && segno < len(dt.sdws) {
		dt.sdws[segno] = SDW{}
	}
	return nil
}
