package uproc

import (
	"sync"

	"multics/internal/lockrank"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

// MaxDonationDepth bounds a donation chain walk: a waiter boosts the
// holder of the lock it wants, and if that holder is itself waiting,
// the boost follows it, up to this many hops.
const MaxDonationDepth = 8

// A PLock is a priority-donating mutex for process-context code: the
// kernel gate and any other lock that user processes contend for.
// Without donation, a low-priority process holding the lock can be
// starved off the CPU by middle-priority processes while a
// high-priority process waits — the classic priority inversion. A
// PLock waiter donates its effective priority to the holder, chaining
// through the holder's own wait if necessary, so the holder runs at
// the waiter's priority until it releases.
//
// The underlying mutex is a lockrank.Mutex ranked by the owning
// module, so the certification-order discipline and the deterministic
// executor's yield points apply unchanged. The bookkeeping lock
// (state) is a plain leaf mutex: its critical sections never reach a
// yield point, so it cannot deadlock the schedule.
type PLock struct {
	m    *Manager
	mu   lockrank.Mutex
	name string

	state   sync.Mutex
	holder  *Process
	waiters []*Process
}

// NewPLock builds a priority-donating lock owned by the named module
// (which gives the underlying mutex its certification rank). The
// manager resolves donor and holder scheduling state; a nil manager
// degrades to a plain ranked mutex.
func NewPLock(m *Manager, module string) *PLock {
	l := &PLock{m: m, name: module}
	l.mu.Init(module)
	return l
}

// Name returns the owning module's name.
func (l *PLock) Name() string { return l.name }

// Acquire takes the lock on behalf of p, donating p's effective
// priority to the current holder (and down its wait chain) before
// blocking. A nil p acquires without donation — boot-time and
// kernel-daemon callers have no process identity.
func (l *PLock) Acquire(p *Process) {
	if p == nil || l.m == nil {
		l.mu.Lock()
		l.state.Lock()
		l.holder = p
		l.state.Unlock()
		return
	}
	l.state.Lock()
	l.waiters = append(l.waiters, p)
	holder := l.holder
	l.state.Unlock()
	p.pmu.Lock()
	p.waitingOn = l
	p.pmu.Unlock()
	if holder != nil {
		l.m.donate(p, l)
	}
	l.mu.Lock()
	l.state.Lock()
	l.holder = p
	for i, w := range l.waiters {
		if w == p {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			break
		}
	}
	l.state.Unlock()
	p.pmu.Lock()
	p.waitingOn = nil
	p.held = append(p.held, l)
	p.pmu.Unlock()
}

// TryAcquire takes the lock if it is free, reporting whether it did.
// On failure the waiter's intent is recorded (p.waitingOn) and its
// priority donated, exactly as for a blocking Acquire — a polling
// waiter still boosts the holder, which is what lets the deterministic
// sweep tests drive contention without parking tasks.
func (l *PLock) TryAcquire(p *Process) bool {
	if l.mu.TryLock() {
		l.state.Lock()
		l.holder = p
		l.state.Unlock()
		if p != nil {
			p.pmu.Lock()
			p.waitingOn = nil
			p.held = append(p.held, l)
			p.pmu.Unlock()
		}
		return true
	}
	if p != nil && l.m != nil {
		p.pmu.Lock()
		p.waitingOn = l
		p.pmu.Unlock()
		l.m.donate(p, l)
	}
	return false
}

// Release drops the lock, first recomputing the holder's donated
// priority from the locks it still holds — the donation from this
// lock's waiters ends now.
func (l *PLock) Release() {
	l.state.Lock()
	p := l.holder
	l.holder = nil
	l.state.Unlock()
	if p != nil && l.m != nil {
		p.pmu.Lock()
		for i, hl := range p.held {
			if hl == l {
				p.held = append(p.held[:i], p.held[i+1:]...)
				break
			}
		}
		held := append([]*PLock(nil), p.held...)
		p.pmu.Unlock()
		// Recompute what is still donated: the highest effective
		// priority among waiters of the locks p still holds. Each
		// waiter's priority is read under its own lock, one at a time
		// — two process locks are never nested.
		donated := 0
		for _, hl := range held {
			hl.state.Lock()
			ws := append([]*Process(nil), hl.waiters...)
			hl.state.Unlock()
			for _, w := range ws {
				if e := w.Effective(); e > donated {
					donated = e
				}
			}
		}
		p.pmu.Lock()
		p.donated = donated
		eff := p.base
		if p.donated > eff {
			eff = p.donated
		}
		if eff != p.eff {
			p.eff = eff
			l.m.requeuePriority(p)
		}
		p.pmu.Unlock()
	}
	l.mu.Unlock()
}

// donate walks the donation chain from donor's wait on l: boost the
// holder to donor's effective priority; if the holder is itself
// waiting on a lock, follow it, up to MaxDonationDepth hops. One
// process lock is held at a time; the chain snapshot races benignly
// with releases (a stale boost is corrected by the holder's own
// Release recompute).
func (m *Manager) donate(donor *Process, l *PLock) {
	if !m.donation.Load() {
		return
	}
	donor.pmu.Lock()
	pri := donor.eff
	donorID := donor.id
	donor.pmu.Unlock()
	lock := l
	for depth := 1; lock != nil && depth <= MaxDonationDepth; depth++ {
		lock.state.Lock()
		h := lock.holder
		lock.state.Unlock()
		if h == nil || h == donor {
			return
		}
		h.pmu.Lock()
		if pri <= h.eff {
			h.pmu.Unlock()
			return
		}
		h.donated = pri
		h.eff = pri
		m.requeuePriority(h)
		next := h.waitingOn
		hid := h.id
		h.pmu.Unlock()
		m.donations.Add(1)
		if d := int64(depth); d > m.maxDonationDepth.Load() {
			m.maxDonationDepth.Store(d)
		}
		if tr := m.trace.Load(); tr != nil {
			tr.Emit(trace.Event{Kind: trace.EvSchedDonate, Module: ModuleName, Arg0: int64(donorID), Arg1: int64(hid), Arg2: int64(pri)})
		}
		schedsim.Yield(schedsim.PointMark, "uproc-donate")
		lock = next
	}
}
