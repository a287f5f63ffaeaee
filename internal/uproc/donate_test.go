package uproc

import (
	"errors"
	"fmt"
	"testing"

	"multics/internal/aim"
	"multics/internal/schedsim"
	"multics/internal/vproc"
)

// inversionRig builds the classic chained priority inversion on a
// fresh fixture: L (priority 2) holds lock A; M2 (priority 5) holds
// lock B and is already recorded waiting on A; M1 (priority 8) is
// pure CPU burn; H (priority 12) polls for B. Without donation the
// strict-priority scheduler runs H and M1 forever — L never releases
// A, so M2 never releases B, so H never gets it. With donation H's
// failed try chains H -> B's holder M2 -> M2's wait on A -> L, and
// the boosted L outranks M1.
type inversionRig struct {
	f            *fixture
	lockA, lockB *PLock
	l, m2, m1, h *Process

	lReleased bool
	m2Done    bool
	hGotB     bool
}

func newInversionRig(t *testing.T, donation bool) *inversionRig {
	t.Helper()
	f := newFixture(t, 4) // two multiplexable virtual processors
	f.m.SetDonation(donation)
	r := &inversionRig{
		f:     f,
		lockA: NewPLock(f.m, "test-lock-a"),
		lockB: NewPLock(f.m, "test-lock-b"),
	}
	mk := func(name string, pri int) *Process {
		p, err := f.m.Create(name, aim.Bottom)
		if err != nil {
			t.Fatal(err)
		}
		f.m.SetPriority(p, pri)
		return p
	}
	r.l = mk("low.x", 2)
	r.m2 = mk("mid2.x", 5)
	r.m1 = mk("mid1.x", 8)
	r.h = mk("high.x", 12)
	if !r.lockA.TryAcquire(r.l) {
		t.Fatal("setup: L could not take lock A")
	}
	if !r.lockB.TryAcquire(r.m2) {
		t.Fatal("setup: M2 could not take lock B")
	}
	// M2's wait on A is on record before the schedule starts, so H's
	// first donation must chain through it (depth 2).
	if r.lockA.TryAcquire(r.m2) {
		t.Fatal("setup: lock A was unexpectedly free")
	}
	return r
}

// body is what each process does with a quantum.
func (r *inversionRig) body(p *Process) {
	switch p {
	case r.l:
		if !r.lReleased {
			r.lReleased = true
			r.lockA.Release()
		}
	case r.m2:
		if !r.m2Done && r.lockA.TryAcquire(r.m2) {
			r.m2Done = true
			r.lockA.Release()
			r.lockB.Release()
		}
	case r.h:
		if !r.hGotB && r.lockB.TryAcquire(r.h) {
			r.hGotB = true
			r.lockB.Release()
		}
	case r.m1:
		// CPU-bound: burns the quantum and stays ready.
	}
}

// worker is one simulated processor's dispatch loop, run as a
// schedsim task; the shared rig fields are serialized by the schedsim
// token.
func (r *inversionRig) worker(wi, budget int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("worker %d: %v", wi, rec)
		}
	}()
	for q := 0; q < budget && !r.hGotB; q++ {
		schedsim.Yield(schedsim.PointQuantum, "dispatch")
		p, epoch, derr := r.f.m.DispatchOn(wi)
		if errors.Is(derr, ErrNoReady) || errors.Is(derr, vproc.ErrNoFreeVP) {
			continue
		}
		if derr != nil {
			return derr
		}
		r.body(p)
		if perr := r.f.m.preemptIfCurrent(p, epoch); perr != nil {
			return perr
		}
	}
	return nil
}

// run executes the rig's two processors under the given strategy and
// returns the first error.
func (r *inversionRig) run(strat schedsim.Strategy, budget int) error {
	ex := schedsim.New(schedsim.Config{Name: "inversion", Strategy: strat})
	errs := make([]error, 2)
	for wi := 0; wi < 2; wi++ {
		ex.Go(fmt.Sprintf("cpu%d", wi), func() { errs[wi] = r.worker(wi, budget) })
	}
	if err := ex.Run(); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// TestPriorityInversionWithoutDonation demonstrates the inversion the
// donation machinery exists to solve: with donation off, the
// high-priority process never acquires lock B because the lock's
// holder chain is starved behind the CPU-bound middle priority.
func TestPriorityInversionWithoutDonation(t *testing.T) {
	r := newInversionRig(t, false)
	if err := r.run(schedsim.Random(1977), 24); err != nil {
		t.Fatal(err)
	}
	if r.hGotB {
		t.Fatal("H acquired lock B without donation: the inversion scenario is broken")
	}
	if r.lReleased {
		t.Fatal("starved L ran without donation: the inversion scenario is broken")
	}
	st := r.f.m.SchedStats()
	if st.Donations != 0 {
		t.Fatalf("donation off, yet %d donations", st.Donations)
	}
}

// TestSweepDonationResolvesInversion systematically explores
// interleavings around the donation walk and the dispatch decision:
// in EVERY explored schedule the donation chain (depth >= 2: H's
// failed try on B boosts B's holder M2, then follows M2's recorded
// wait to A's holder L) must let H acquire lock B within the quantum
// budget. Donation and depth counters prove the sweep exercised the
// chain rather than passing vacuously.
func TestSweepDonationResolvesInversion(t *testing.T) {
	var totalDonations, maxDepth int64
	maxSched, maxPre := schedsim.EnvBudget(48, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointMark && d.Detail == "uproc-donate" ||
				d.Point == schedsim.PointQuantum
		},
	}, func(strat schedsim.Strategy) error {
		r := newInversionRig(t, true)
		if err := r.run(strat, 24); err != nil {
			return err
		}
		if !r.hGotB {
			return fmt.Errorf("high-priority process never acquired lock B: inversion unresolved")
		}
		st := r.f.m.SchedStats()
		if st.Donations == 0 {
			return fmt.Errorf("H acquired lock B with zero donations: scenario degenerated")
		}
		totalDonations += st.Donations
		if st.MaxDonationDepth > maxDepth {
			maxDepth = st.MaxDonationDepth
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous: no in-window decisions over %d schedules", rep.Schedules)
	}
	if totalDonations == 0 {
		t.Fatal("sweep vacuous: no donations in any schedule")
	}
	if maxDepth < 2 {
		t.Fatalf("donation chain never reached depth 2 (max %d): the chained walk was not exercised", maxDepth)
	}
	t.Logf("%d schedules, %d in-window decisions, %d donations, max chain depth %d, truncated=%v",
		rep.Schedules, rep.WindowDecisions, totalDonations, maxDepth, rep.Truncated)
}
