// Fault plane: deterministic fault injection for the disk substrate.
//
// The paper argues the storage design in robustness terms — every page
// of a segment on one pack, relocation as a multi-step update of two
// tables of contents plus a directory entry, quota cells statically
// bound so used-counts stay recomputable — but robustness claims are
// only testable against failures. A FaultPlan makes the failures
// injectable and exactly reproducible: it is seeded and step-counted
// (no wall clock anywhere), so two runs of the same workload against
// the same plan fail at the same operations with the same errors.
//
// Three failure classes are modeled:
//
//   - transient transfer faults (ErrTransient): the record transfer or
//     allocation fails once and succeeds when retried, as a marginal
//     head or a busy channel would;
//   - permanent faults (ErrPermanent): the operation fails every time;
//     callers must give up cleanly, never corrupt, never panic;
//   - a crash (ErrCrashed): at the Nth disk mutation the machine
//     halts. The Nth mutation and everything after it fail, and the
//     packs keep whatever half-updated state the interrupted
//     multi-step operation had reached — the state the volume
//     salvager exists to repair.
package disk

import (
	"errors"
	"fmt"
	"sync"

	"multics/internal/hw"
)

// Typed injected faults. Callers must test with errors.Is: every
// injection site wraps these with operation context.
var (
	// ErrTransient marks an injected fault that goes away on retry.
	ErrTransient = errors.New("disk: transient transfer fault")
	// ErrPermanent marks an injected fault that never goes away.
	ErrPermanent = errors.New("disk: permanent device fault")
	// ErrCrashed marks the simulated crash: the machine has halted
	// and every disk operation after the crash point fails.
	ErrCrashed = errors.New("disk: simulated crash")
)

// An Op names one injectable pack operation.
type Op int

const (
	// OpRead is Pack.ReadRecord.
	OpRead Op = iota
	// OpWrite is Pack.WriteRecord.
	OpWrite
	// OpAlloc is Pack.AllocRecord.
	OpAlloc

	numOps = int(OpAlloc) + 1
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAlloc:
		return "alloc"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// A Rule injects typed faults into one operation class by occurrence
// count: the After-th call of Op (0-based, counted per plan) starts
// failing, for Times calls (Times <= 0 means forever — a permanent
// device fault).
type Rule struct {
	// Op selects the operation class.
	Op Op
	// Pack restricts the rule to one pack; empty matches every pack.
	Pack string
	// After is the 0-based occurrence of Op at which the rule
	// starts firing.
	After int
	// Times is how many occurrences fail; <= 0 means every one from
	// After on.
	Times int
	// Permanent selects ErrPermanent over ErrTransient.
	Permanent bool
}

// A FaultPlan decides, deterministically, which disk operations fail.
// One plan is shared by every pack of a Volumes registry so its step
// counters give a global order to all disk activity. The zero value
// injects nothing; methods on a nil plan are no-ops, so the
// uninstrumented path costs one nil check.
//
// Determinism: counters advance only when the kernel performs disk
// operations, and the optional random transients are drawn from a
// seeded xorshift generator advanced once per fallible operation —
// never from wall time.
type FaultPlan struct {
	// CrashAtMutation, when positive, halts the machine at the Nth
	// disk mutation (1-based): that mutation and every operation
	// after it fail with ErrCrashed.
	CrashAtMutation int
	// Rules are the typed per-operation injections.
	Rules []Rule
	// Seed drives the optional random transient stream.
	Seed uint64
	// TransientEvery, when positive, makes roughly one in that many
	// fallible operations fail with ErrTransient, chosen by the
	// seeded generator.
	TransientEvery int

	// mu orders the counters: one plan is shared by every pack, each
	// of which calls in under its own lock.
	mu        sync.Mutex
	mutations int
	opCount   [numOps]int
	rng       uint64
	crashed   bool
}

// Mutations reports how many disk mutations the plan has counted; the
// crash-point sweep uses it to bound its sweep.
func (f *FaultPlan) Mutations() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mutations
}

// Crashed reports whether the crash point has been reached.
func (f *FaultPlan) Crashed() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// xorshift64 is the seeded deterministic generator for random
// transients.
func (f *FaultPlan) next() uint64 {
	if f.rng == 0 {
		f.rng = f.Seed | 1
	}
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	return f.rng
}

// checkOp is called by a pack, under the pack lock and the plan's
// owner ordering, before performing op. mutating operations advance
// the mutation counter; once the crash point is reached every
// operation fails. The returned error is nil when the operation may
// proceed.
func (f *FaultPlan) checkOp(op Op, pack string, mutating bool) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fmt.Errorf("disk: %v on pack %s after crash point: %w", op, pack, ErrCrashed)
	}
	if mutating {
		f.mutations++
		if f.CrashAtMutation > 0 && f.mutations >= f.CrashAtMutation {
			f.crashed = true
			return fmt.Errorf("disk: crash at mutation %d (%v on pack %s): %w", f.mutations, op, pack, ErrCrashed)
		}
	}
	n := f.opCount[op]
	f.opCount[op]++
	for _, r := range f.Rules {
		if r.Op != op || (r.Pack != "" && r.Pack != pack) {
			continue
		}
		if n < r.After || (r.Times > 0 && n >= r.After+r.Times) {
			continue
		}
		if r.Permanent {
			return fmt.Errorf("disk: injected fault, %v #%d on pack %s: %w", op, n, pack, ErrPermanent)
		}
		return fmt.Errorf("disk: injected fault, %v #%d on pack %s: %w", op, n, pack, ErrTransient)
	}
	if f.TransientEvery > 0 && f.next()%uint64(f.TransientEvery) == 0 {
		return fmt.Errorf("disk: injected random fault, %v #%d on pack %s: %w", op, n, pack, ErrTransient)
	}
	return nil
}

// checkMutation covers mutating operations that transfer no records
// (table-of-contents updates, record frees): they advance the crash
// clock but carry no typed-injection rules.
func (f *FaultPlan) checkMutation(pack string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fmt.Errorf("disk: mutation on pack %s after crash point: %w", pack, ErrCrashed)
	}
	f.mutations++
	if f.CrashAtMutation > 0 && f.mutations >= f.CrashAtMutation {
		f.crashed = true
		return fmt.Errorf("disk: crash at mutation %d (pack %s): %w", f.mutations, pack, ErrCrashed)
	}
	return nil
}

// MaxRetries bounds the transient-fault retry loops in the paths that
// must be crash-interruptible and re-entrant.
const MaxRetries = 3

// retryBackoffCycles is the base of the deterministic exponential
// backoff charged to the meter between retries: there is no wall
// clock, so waiting is modeled as simulated cycles.
const retryBackoffCycles = hw.CycDiskSeek

// Retry runs fn, retrying up to MaxRetries times while it reports an
// injected transient fault. Each retry charges a deterministic,
// exponentially growing backoff to meter (which may be nil). Any
// other error — permanent faults, crashes, real failures — is
// returned immediately: retrying cannot help and must not loop.
func Retry(meter *hw.CostMeter, fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || !errors.Is(err, ErrTransient) || attempt == MaxRetries {
			return err
		}
		meter.Add(ModuleName, retryBackoffCycles<<attempt)
	}
}
