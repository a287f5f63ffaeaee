package workload

import (
	"fmt"
	"sync"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/core"
	"multics/internal/hw"
	"multics/internal/uproc"
)

// LoginStorm shapes a login/timesharing storm: register and log in
// Users principals through the answering service, run Rounds rounds
// of QuantaPerRound scheduler quanta per processor with every
// BlockEvery-th session (rotating by round) blocking mid-quantum and
// being woken through the real-memory queue, then log everyone out.
// Rounds 0 means login/logout only; BlockEvery 0 disables blocking.
type LoginStorm struct {
	Users, Rounds, QuantaPerRound, BlockEvery int
}

// LoginStats summarizes a login storm.
type LoginStats struct {
	Logins  int
	Logouts int
	// Quanta is the total scheduler quanta that ran, and QuantaCycles
	// the meter's advance across the quanta runs.
	Quanta       int
	QuantaCycles int64
	// Blocked and Woken count block/wake round trips through the
	// real-memory queue.
	Blocked int
	Woken   int
	// WakeRetries counts wakeups that found the bounded queue full
	// and had to drain it before reposting.
	WakeRetries int
}

// stormPassword is the shared password of the synthetic principals.
const stormPassword = "storm-pw"

// wakeBatch bounds how many wakeups are posted before the real-memory
// queue is drained; it stays under the queue's fixed capacity.
const wakeBatch = 128

// Run drives the storm on k's processors under ex: register, login
// flood, timesharing rounds with block/wake churn, logout flood. svc
// must create its sessions' processes with k.CreateProcess. The
// quanta run on every processor; each serial phase (the login flood,
// a round's wake-ups, the logout flood) runs as one body on the first
// processor, so no kernel code runs outside the executor.
// Everything iterates over index-ordered slices, so two identical
// runs make identical calls in identical order.
func (s LoginStorm) Run(k *core.Kernel, ex uproc.Executor, svc *answering.Service) (LoginStats, error) {
	var st LoginStats
	if s.Users <= 0 {
		return st, fmt.Errorf("workload: login storm of %d users", s.Users)
	}
	serial := func(phase func() error) error {
		var err error
		if xerr := ex.Run(k.CPUs[:1], func(*hw.Processor) { err = phase() }); xerr != nil {
			return xerr
		}
		return err
	}

	// Registration and the login flood.
	sessions := make([]*answering.Session, 0, s.Users)
	procs := make([]*uproc.Process, 0, s.Users)
	if err := serial(func() error {
		for i := 0; i < s.Users; i++ {
			principal := answering.StormPrincipal(i)
			if err := svc.Register(principal, stormPassword, aim.Top); err != nil {
				return err
			}
			sess, err := svc.Login(principal, stormPassword, aim.Bottom)
			if err != nil {
				return fmt.Errorf("login %s: %w", principal, err)
			}
			sessions = append(sessions, sess)
			procs = append(procs, sess.Process.(*uproc.Process))
			st.Logins++
		}
		return nil
	}); err != nil {
		return st, err
	}

	// Timesharing rounds: some sessions block inside their quantum,
	// the rest spin; the blocked are woken through the bounded
	// real-memory queue in batches, then delivery runs.
	for r := 0; r < s.Rounds; r++ {
		toBlock := make(map[*uproc.Process]bool)
		var blocked []*uproc.Process
		if s.BlockEvery > 0 {
			for i, p := range procs {
				if (i+r)%s.BlockEvery == 0 {
					toBlock[p] = true
					blocked = append(blocked, p)
				}
			}
		}
		// The quantum callback runs on every processor's worker, so
		// the block bookkeeping takes a lock.
		var blockMu sync.Mutex
		var blockErr error
		start := k.Meter.Snapshot()
		ran, err := k.Procs.RunQuantumWith(ex, k.CPUs, s.QuantaPerRound, func(_ *hw.Processor, p *uproc.Process) {
			blockMu.Lock()
			mine := toBlock[p]
			if mine {
				delete(toBlock, p)
			}
			blockMu.Unlock()
			if !mine {
				return
			}
			// A nil eventcount blocks until any wakeup message
			// addressed to the process arrives.
			if err := k.Procs.Block(p, nil, 0); err != nil {
				blockMu.Lock()
				if blockErr == nil {
					blockErr = err
				}
				blockMu.Unlock()
			}
		})
		st.QuantaCycles += k.Meter.Since(start)
		st.Quanta += ran
		if err != nil {
			return st, fmt.Errorf("storm round %d: %w", r, err)
		}
		if blockErr != nil {
			return st, fmt.Errorf("storm round %d block: %w", r, blockErr)
		}
		// Wake whoever actually blocked (sessions never dispatched
		// this round are still ready and need no wakeup).
		if err := serial(func() error {
			pending := 0
			for _, p := range blocked {
				if toBlock[p] {
					continue // never dispatched, never blocked
				}
				st.Blocked++
				if err := k.Procs.Wakeup(p.ID(), 0); err != nil {
					// The bounded queue filled: drain it, then repost.
					st.WakeRetries++
					woke, derr := k.Procs.DeliverEvents()
					st.Woken += woke
					if derr != nil {
						return derr
					}
					pending = 0
					if err := k.Procs.Wakeup(p.ID(), 0); err != nil {
						return fmt.Errorf("storm round %d wake: %w", r, err)
					}
				}
				pending++
				if pending >= wakeBatch {
					woke, err := k.Procs.DeliverEvents()
					if err != nil {
						return err
					}
					st.Woken += woke
					pending = 0
				}
			}
			if pending > 0 {
				woke, err := k.Procs.DeliverEvents()
				if err != nil {
					return err
				}
				st.Woken += woke
			}
			return nil
		}); err != nil {
			return st, err
		}
	}

	// The logout flood.
	err := serial(func() error {
		for i, sess := range sessions {
			p := procs[i]
			if err := svc.Logout(sess, p.CPU()); err != nil {
				return err
			}
			if err := k.Procs.Destroy(p); err != nil {
				return err
			}
			st.Logouts++
		}
		return nil
	})
	return st, err
}
