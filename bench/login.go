package main

import (
	"fmt"
	"time"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/core"
	"multics/internal/hw"
	"multics/internal/uproc"
)

// login_churn shape: a steady logged-in population, turned over one
// session at a time. A batch is loginTurnovers turnovers followed by a
// quantum phase of loginQuanta quanta per CPU under the sim executor,
// in which every loginBlockEvery-th dispatched process blocks and is
// woken at once through Wakeup and DeliverEvents.
const (
	loginTurnovers  = 16
	loginQuanta     = 16
	loginBlockEvery = 97
	loginPassword   = "churn-pw"
)

type loginSize struct {
	// users stay logged in; pool principals are registered, so each
	// login picks one of the pool-users idle principals.
	users, pool int
	// warmup batches run in set-up; sim batches carry the simulated
	// figures.
	warmup, sim int
}

var (
	loginFull = loginSize{users: 4096, pool: 8192, warmup: 32, sim: 512}
	loginTiny = loginSize{users: 64, pool: 128, warmup: 2, sim: 8}
)

type loginChurn struct {
	h   *harness
	sz  loginSize
	k   *core.Kernel
	svc *answering.Service
	rng *rng

	names []string
	// sessions[i] is the session in slot i, owned by principal
	// owner[i]; idle holds the principals not logged in.
	sessions []*answering.Session
	owner    []int
	idle     []int

	op         int64
	dispatched int64
	blocked    []*uproc.Process
	blockErr   error
}

func setupLoginChurn(h *harness, seed int64, tiny bool) (instance, error) {
	sz := loginFull
	if tiny {
		sz = loginTiny
	}
	k, err := h.boot(seed, func(c *core.Config) {
		// An ASTE per resident process state, and memory to keep every
		// state resident: the workload measures the process plane, not
		// the pager.
		c.ASTPages = (sz.users+256)/128 + 2
		c.WiredFrames = c.ASTPages + 6
		c.MemFrames = sz.users + 512 + c.WiredFrames
		c.Packs = []core.PackSpec{{ID: "dska", Records: 16384}, {ID: "dskb", Records: 16384}}
	})
	if err != nil {
		return nil, err
	}
	w := &loginChurn{h: h, sz: sz, k: k, rng: newRNG(seed, 1)}
	w.svc = answering.New(answering.Split, k.Meter, w.create)
	w.names = make([]string, sz.pool)
	for i := range w.names {
		w.names[i] = answering.StormPrincipal(i)
		if err := w.svc.Register(w.names[i], loginPassword, aim.Top); err != nil {
			return nil, err
		}
	}
	order := w.rng.perm(sz.pool)
	w.owner, w.idle = order[:sz.users], order[sz.users:]
	w.sessions = make([]*answering.Session, sz.users)
	for i, who := range w.owner {
		if w.sessions[i], err = w.login(who); err != nil {
			return nil, err
		}
	}
	for b := 0; b < sz.warmup; b++ {
		if _, err := w.batch(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// create is the answering service's process-creation callback.
func (w *loginChurn) create(principal string, label aim.Label) (any, error) {
	w.h.tr.begin(0, spCreate, w.op)
	p, err := w.k.Procs.Create(principal, label)
	w.h.tr.end(0)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (w *loginChurn) login(who int) (*answering.Session, error) {
	w.h.tr.begin(0, spLogin, w.op)
	sess, err := w.svc.Login(w.names[who], loginPassword, aim.Bottom)
	w.h.tr.end(0)
	if err != nil {
		w.h.failed++
		w.h.loginFailures++
		return nil, fmt.Errorf("login %s: %w", w.names[who], err)
	}
	return sess, nil
}

func (w *loginChurn) batch() (int, error) {
	for i := 0; i < loginTurnovers; i++ {
		if err := w.turnover(); err != nil {
			return i, err
		}
	}
	return loginTurnovers, w.quanta()
}

// turnover logs out and destroys the session in a random slot, then
// logs a random idle principal into it.
func (w *loginChurn) turnover() error {
	h := w.h
	c0 := w.k.Meter.Cycles()
	h.tr.begin(0, spOp, w.op)
	slot := w.rng.intn(len(w.sessions))
	sess := w.sessions[slot]
	proc := sess.Process.(*uproc.Process)
	h.tr.begin(0, spLogout, w.op)
	err := w.svc.Logout(sess, proc.CPU())
	h.tr.end(0)
	if err != nil {
		return err
	}
	h.tr.begin(0, spDestroy, w.op)
	err = w.k.Procs.Destroy(proc)
	h.tr.end(0)
	if err != nil {
		return err
	}
	j := w.rng.intn(len(w.idle))
	who := w.idle[j]
	w.idle[j] = w.owner[slot]
	if w.sessions[slot], err = w.login(who); err != nil {
		return err
	}
	w.owner[slot] = who
	h.tr.end(0)
	h.record(w.k.Meter.Cycles() - c0)
	w.op++
	return nil
}

// quanta runs one quantum phase on both CPUs and wakes whoever
// blocked in it.
func (w *loginChurn) quanta() error {
	h := w.h
	s := h.newSchedule(int64(w.rng.next() >> 1))
	w.blocked = w.blocked[:0]
	w.blockErr = nil
	h.tr.begin(0, spQuanta, w.op)
	t0 := time.Now()
	ran, err := w.k.Procs.RunQuantumWith(uproc.SimExecutor{Strategy: s}, w.k.CPUs, loginQuanta, w.quantum)
	// The executor keeps every decision it takes, one per strategy call.
	h.account(s, t0, s.n)
	h.tr.endCalls(0, int64(ran))
	if err != nil {
		return err
	}
	if w.blockErr != nil {
		return w.blockErr
	}
	woken := 0
	for _, p := range w.blocked {
		if err := w.k.Procs.Wakeup(p.ID(), 0); err != nil {
			// The bounded real-memory queue is full: drain, then repost.
			h.wakeRetries++
			h.failed++
			n, err := w.k.Procs.DeliverEvents()
			if err != nil {
				return err
			}
			woken += n
			if err := w.k.Procs.Wakeup(p.ID(), 0); err != nil {
				return fmt.Errorf("wakeup of process %d: %w", p.ID(), err)
			}
		}
	}
	if len(w.blocked) > 0 {
		n, err := w.k.Procs.DeliverEvents()
		if err != nil {
			return err
		}
		woken += n
	}
	if woken != len(w.blocked) {
		return fmt.Errorf("%d processes blocked in a quantum phase, %d woken", len(w.blocked), woken)
	}
	return nil
}

// quantum is the body each dispatched process runs. The executor's
// tasks run one at a time, so the shared fields need no lock.
func (w *loginChurn) quantum(_ *hw.Processor, p *uproc.Process) {
	w.dispatched++
	if w.dispatched%loginBlockEvery != 0 {
		return
	}
	if err := w.k.Procs.Block(p, nil, 0); err != nil {
		if w.blockErr == nil {
			w.blockErr = err
		}
		return
	}
	w.blocked = append(w.blocked, p)
}

func (w *loginChurn) simBatches() int         { return w.sz.sim }
func (w *loginChurn) kernels() []*core.Kernel { return []*core.Kernel{w.k} }
func (w *loginChurn) nodes() []*core.NetNode  { return nil }

// check verifies the population: every slot holds a live process, the
// process table holds exactly the logged-in users, and the accounting
// records show exactly that many open sessions.
func (w *loginChurn) check() error {
	if n := w.k.Procs.Count(); n != w.sz.users {
		return fmt.Errorf("%d processes alive, want %d logged-in users", n, w.sz.users)
	}
	open := 0
	for _, r := range w.svc.Records() {
		if r.Open {
			open++
		}
	}
	if open != w.sz.users {
		return fmt.Errorf("%d open accounting records, want %d", open, w.sz.users)
	}
	for i, s := range w.sessions {
		if p := s.Process.(*uproc.Process); p.State() == uproc.Dead {
			return fmt.Errorf("slot %d holds dead process %d", i, p.ID())
		}
	}
	return nil
}
