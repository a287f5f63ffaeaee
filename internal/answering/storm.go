package answering

import (
	"fmt"
	"sync"

	"multics/internal/aim"
)

// StormConfig shapes a login/timesharing storm: register and log in
// Users principals, run Rounds rounds of QuantaPerRound scheduler
// quanta with every BlockEvery-th session blocking mid-quantum and
// being woken through the real-memory queue, then log everyone out.
type StormConfig struct {
	// Users is the number of simulated users.
	Users int
	// Rounds of timesharing after the login flood; 0 means login/
	// logout only.
	Rounds int
	// QuantaPerRound is the scheduler quanta budget per round, per
	// worker.
	QuantaPerRound int
	// BlockEvery blocks every BlockEvery-th session (rotating by
	// round) inside its quantum, to be woken by a queue message; 0
	// disables blocking.
	BlockEvery int
	// WakeBatch bounds how many wakeups are posted before the queue
	// is drained; it must stay under the real-memory queue's fixed
	// capacity. 0 selects a safe default.
	WakeBatch int
}

// StormOps are the scheduler operations the storm drives, supplied by
// the kernel embedding (the answering service itself knows nothing of
// the process plane — the process handles are opaque, exactly like
// Session.Process).
type StormOps struct {
	// Quanta runs up to n scheduler quanta per worker, calling
	// body with each dispatched process.
	Quanta func(n int, body func(proc any)) (int, error)
	// Block parks the (running) process until a wakeup message
	// addressed to it arrives.
	Block func(proc any) error
	// Wake posts a wakeup message for the process into the
	// real-memory queue; it can fail when the bounded queue is full.
	Wake func(proc any) error
	// Deliver drains the real-memory queue, waking blocked
	// processes; returns how many woke.
	Deliver func() (int, error)
	// Destroy ends the process at logout.
	Destroy func(proc any) error
	// CPUOf reports the simulated cycles the process consumed, for
	// the accounting record.
	CPUOf func(proc any) int64
}

// StormStats summarizes a storm run.
type StormStats struct {
	Logins  int
	Logouts int
	// Quanta is the total scheduler quanta that ran.
	Quanta int
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

// StormPrincipal names the i-th synthetic storm user.
func StormPrincipal(i int) string { return fmt.Sprintf("u%05d.storm", i) }

// RunStorm drives the full storm: register, login flood, timesharing
// rounds with block/wake churn, logout flood. Everything iterates
// over index-ordered slices — never maps — so two identical runs
// make identical calls in identical order.
func (s *Service) RunStorm(cfg StormConfig, ops StormOps) (StormStats, error) {
	var st StormStats
	if cfg.Users <= 0 {
		return st, fmt.Errorf("answering: storm of %d users", cfg.Users)
	}
	if ops.Quanta == nil || ops.Deliver == nil || ops.Block == nil || ops.Wake == nil {
		return st, fmt.Errorf("answering: storm ops incomplete")
	}
	wakeBatch := cfg.WakeBatch
	if wakeBatch <= 0 {
		wakeBatch = 128
	}

	// Registration and the login flood.
	sessions := make([]*Session, 0, cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		principal := StormPrincipal(i)
		if err := s.Register(principal, stormPassword, aim.Top); err != nil {
			return st, err
		}
		sess, err := s.Login(principal, stormPassword, aim.Bottom)
		if err != nil {
			return st, fmt.Errorf("login %s: %w", principal, err)
		}
		sessions = append(sessions, sess)
		st.Logins++
	}

	// Timesharing rounds: some sessions block inside their quantum,
	// the rest spin; the blocked are woken through the bounded
	// real-memory queue in batches, then delivery runs.
	for r := 0; r < cfg.Rounds; r++ {
		toBlock := make(map[any]bool)
		var blocked []*Session
		if cfg.BlockEvery > 0 {
			for i, sess := range sessions {
				if (i+r)%cfg.BlockEvery == 0 {
					toBlock[sess.Process] = true
					blocked = append(blocked, sess)
				}
			}
		}
		// The quantum callback runs on every worker goroutine of a
		// parallel executor, so the block bookkeeping takes a lock.
		var blockMu sync.Mutex
		var blockErr error
		ran, err := ops.Quanta(cfg.QuantaPerRound, func(proc any) {
			blockMu.Lock()
			mine := toBlock[proc]
			if mine {
				delete(toBlock, proc)
			}
			blockMu.Unlock()
			if !mine {
				return
			}
			if err := ops.Block(proc); err != nil {
				blockMu.Lock()
				if blockErr == nil {
					blockErr = err
				}
				blockMu.Unlock()
			}
		})
		st.Quanta += ran
		if err != nil {
			return st, fmt.Errorf("storm round %d: %w", r, err)
		}
		if blockErr != nil {
			return st, fmt.Errorf("storm round %d block: %w", r, blockErr)
		}
		// Wake whoever actually blocked (sessions never dispatched
		// this round are still ready and need no wakeup).
		pending := 0
		for _, sess := range blocked {
			if toBlock[sess.Process] {
				continue // never dispatched, never blocked
			}
			st.Blocked++
			if err := ops.Wake(sess.Process); err != nil {
				// The bounded queue filled: drain it, then repost.
				st.WakeRetries++
				woke, derr := ops.Deliver()
				st.Woken += woke
				if derr != nil {
					return st, derr
				}
				pending = 0
				if err := ops.Wake(sess.Process); err != nil {
					return st, fmt.Errorf("storm round %d wake: %w", r, err)
				}
			}
			pending++
			if pending >= wakeBatch {
				woke, err := ops.Deliver()
				if err != nil {
					return st, err
				}
				st.Woken += woke
				pending = 0
			}
		}
		if pending > 0 {
			woke, err := ops.Deliver()
			if err != nil {
				return st, err
			}
			st.Woken += woke
		}
	}

	// The logout flood.
	for _, sess := range sessions {
		var used int64
		if ops.CPUOf != nil {
			used = ops.CPUOf(sess.Process)
		}
		if err := s.Logout(sess, used); err != nil {
			return st, err
		}
		if ops.Destroy != nil {
			if err := ops.Destroy(sess.Process); err != nil {
				return st, err
			}
		}
		st.Logouts++
	}
	return st, nil
}
