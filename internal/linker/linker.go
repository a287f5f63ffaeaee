// Package linker implements the Multics dynamic linker in its two
// configurations: the pre-1974 kernel-resident linker, and the linker
// extracted to the user ring by Janson's project — the first of the
// removal experiments the paper reports.
//
// A program's external references are symbolic until first use; the
// first reference takes a link fault and the linker "snaps" the link:
// it resolves the symbol through the file system and patches the
// linkage section so later references go straight through.
//
// Removing the linker from ring zero cut 5% of the supervisor's
// object code, 2.5% of its internal entry points, and 11% of the
// gates callable from the user domain (the linker was doing a user
// function inside the kernel). The paper notes the extracted linker
// ran somewhat slower — the user-ring linker must make separate gate
// calls back into the kernel for the searches the in-kernel version
// made as local calls — with the causes understood and curable. The
// cost model reproduces that shape.
package linker

import (
	"errors"
	"fmt"
	"sync"

	"multics/internal/hw"
)

// ModuleName is the linker's account in the kernel's cycle ledger, in
// either configuration, and the module its gate calls are attributed to.
const ModuleName = "linker"

// Mode selects where the linker lives.
type Mode int

const (
	// InKernel is the pre-redesign configuration: the linker runs
	// in ring zero inside the fault handler.
	InKernel Mode = iota
	// UserRing is Janson's configuration: the fault is reflected to
	// the user ring, and the linker there calls kernel gates for
	// resolution.
	UserRing
)

func (m Mode) String() string {
	if m == InKernel {
		return "in-kernel"
	}
	return "user-ring"
}

// Algorithm-body costs (assembly-cycle units, PL/I coded). The
// resolution work itself (directory search, initiate) is charged by
// the resolver callback; these are the linker's own bodies.
const (
	// bodySnapKernel is the in-kernel linker's snap path: somewhat
	// heavier than plain user code because it validates arguments
	// against protected data structures.
	bodySnapKernel = 140
	// bodySnapUser is the extracted linker's snap path: ordinary
	// user code, lighter per line...
	bodySnapUser = 120
	// ...but each snap makes separate kernel gate calls the
	// in-kernel version performed as local transfers (search,
	// initiate, combine), each a ring round trip. This is why the
	// extracted linker ran somewhat slower — understood and curable.
	userRingGateCalls = 3
)

// A Target is a snapped link: segment number and word offset.
type Target struct {
	Segno  int
	Offset int
}

// A Resolver turns a symbolic reference into a target, performing the
// directory search and initiation. Its own costs are charged by the
// callee.
type Resolver func(symbol string) (Target, error)

// ErrUnresolved reports a symbol the resolver could not bind.
var ErrUnresolved = errors.New("linker: unresolved symbol")

type link struct {
	snapped bool
	target  Target
}

// A Linkage is one process's linkage section: the per-process table
// of external references.
type Linkage struct {
	mu    sync.Mutex
	links map[string]*link
}

// NewLinkage returns an empty linkage section.
func NewLinkage() *Linkage {
	return &Linkage{links: make(map[string]*link)}
}

// Snapped reports how many links have been snapped.
func (lk *Linkage) Snapped() int {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	n := 0
	for _, l := range lk.links {
		if l.snapped {
			n++
		}
	}
	return n
}

// A Linker snaps links in one of the two configurations.
type Linker struct {
	Mode    Mode
	Meter   *hw.CostMeter
	Resolve Resolver

	mu     sync.Mutex
	faults int64
}

// New returns a linker in the given configuration.
func New(mode Mode, meter *hw.CostMeter, resolve Resolver) *Linker {
	return &Linker{Mode: mode, Meter: meter, Resolve: resolve}
}

// Faults reports the number of link faults taken.
func (l *Linker) Faults() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.faults
}

// Reference follows one external reference for the process owning lk,
// snapping the link on first use. cpu (which may be nil) carries the
// ring-crossing accounting.
func (l *Linker) Reference(cpu *hw.Processor, lk *Linkage, symbol string) (Target, error) {
	lk.mu.Lock()
	ln := lk.links[symbol]
	if ln == nil {
		ln = &link{}
		lk.links[symbol] = ln
	}
	if ln.snapped {
		t := ln.target
		lk.mu.Unlock()
		l.Meter.Add(ModuleName, hw.CycMemRef) // indirect through the snapped link
		return t, nil
	}
	lk.mu.Unlock()

	// Link fault.
	l.Meter.Add(ModuleName, hw.CycFault)
	l.mu.Lock()
	l.faults++
	l.mu.Unlock()

	var target Target
	var err error
	switch l.Mode {
	case InKernel:
		// One entry into ring zero covers the whole snap; the
		// resolution happens as local calls inside the kernel.
		err = l.gate(cpu, func() error {
			l.Meter.AddBody(ModuleName, bodySnapKernel, hw.PLI)
			var rerr error
			target, rerr = l.Resolve(symbol)
			return rerr
		})
	case UserRing:
		// The fault is reflected back to the user ring; the
		// user-ring linker body runs there and makes separate
		// gate calls for the kernel's part of the work.
		l.Meter.AddBody(ModuleName, bodySnapUser, hw.PLI)
		for i := 0; i < userRingGateCalls-1; i++ {
			// Extra kernel round trips beyond the single one the
			// resolver itself performs.
			gerr := l.gate(cpu, func() error { return nil })
			if gerr != nil {
				return Target{}, gerr
			}
		}
		err = l.gate(cpu, func() error {
			var rerr error
			target, rerr = l.Resolve(symbol)
			return rerr
		})
	default:
		return Target{}, fmt.Errorf("linker: unknown mode %d", l.Mode)
	}
	if err != nil {
		return Target{}, err
	}
	lk.mu.Lock()
	ln.snapped = true
	ln.target = target
	lk.mu.Unlock()
	return target, nil
}

func (l *Linker) gate(cpu *hw.Processor, fn func() error) error {
	if cpu == nil {
		return fn()
	}
	cpu.GateModule = ModuleName
	return cpu.GateCall(hw.KernelRing, true, fn)
}

// KernelLines reports the source lines the configuration keeps inside
// the security kernel (Janson 1974: the whole 2,000-line linker was
// doing a user function).
func KernelLines(mode Mode) int {
	if mode == InKernel {
		return 2000
	}
	return 0
}
