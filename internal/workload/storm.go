package workload

import (
	"cmp"
	"fmt"
	"slices"
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
	// LoginCycles sums the answering service's per-login cycles, and
	// FirstQuanta holds, sorted, each dispatched process's cycles from
	// creation to its first quantum.
	LoginCycles int64
	FirstQuanta []int64
}

// Service returns an answering service whose sessions run as
// processes of k.
func Service(k *core.Kernel) *answering.Service {
	return answering.New(answering.Split, k.Meter, func(principal string, label aim.Label) (any, error) {
		return k.CreateProcess(principal, label)
	})
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
// runs make identical calls in identical order. Run fails unless the
// books close: every login logged out, every blocked session woken,
// no session record left open.
func (s LoginStorm) Run(k *core.Kernel, ex uproc.Executor, svc *answering.Service) (LoginStats, error) {
	var st LoginStats
	if s.Users <= 0 {
		return st, fmt.Errorf("workload: login storm of %d users", s.Users)
	}
	// Registration and the login flood.
	sessions := make([]*answering.Session, 0, s.Users)
	procs := make([]*uproc.Process, 0, s.Users)
	if err := serial(k, ex, func(must func(error)) {
		for i := 0; i < s.Users; i++ {
			principal := answering.StormPrincipal(i)
			must(svc.Register(principal, stormPassword, aim.Top))
			sess, err := svc.Login(principal, stormPassword, aim.Bottom)
			if err != nil {
				must(fmt.Errorf("login %s: %w", principal, err))
			}
			sessions = append(sessions, sess)
			procs = append(procs, sess.Process.(*uproc.Process))
			st.Logins++
		}
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
				blockErr = cmp.Or(blockErr, err)
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
		if err := serial(k, ex, func(must func(error)) {
			deliver := func() {
				woke, err := k.Procs.DeliverEvents()
				st.Woken += woke
				must(err)
			}
			pending := 0
			for _, p := range blocked {
				if toBlock[p] {
					continue // never dispatched, never blocked
				}
				st.Blocked++
				if err := k.Procs.Wakeup(p.ID(), 0); err != nil {
					// The bounded queue filled: drain it, then repost.
					st.WakeRetries++
					deliver()
					pending = 0
					if err := k.Procs.Wakeup(p.ID(), 0); err != nil {
						must(fmt.Errorf("storm round %d wake: %w", r, err))
					}
				}
				pending++
				if pending >= wakeBatch {
					deliver()
					pending = 0
				}
			}
			if pending > 0 {
				deliver()
			}
		}); err != nil {
			return st, err
		}
	}

	// The logout flood.
	err := serial(k, ex, func(must func(error)) {
		for i, sess := range sessions {
			must(svc.Logout(sess, procs[i].CPU()))
			must(k.Procs.Destroy(procs[i]))
			st.Logouts++
		}
	})
	for _, r := range svc.Records() {
		st.LoginCycles += r.LoginCycles
		if r.Open {
			err = cmp.Or(err, fmt.Errorf("login storm: %s's session record is still open", r.Principal))
		}
	}
	if st.Logouts != st.Logins || st.Woken != st.Blocked {
		err = cmp.Or(err, fmt.Errorf("login storm: %d logins, %d logouts, %d blocked, %d woken", st.Logins, st.Logouts, st.Blocked, st.Woken))
	}
	for _, p := range procs {
		if fr := p.FirstRunCycle(); fr >= 0 {
			st.FirstQuanta = append(st.FirstQuanta, fr-p.CreatedCycle())
		}
	}
	slices.Sort(st.FirstQuanta)
	return st, err
}
