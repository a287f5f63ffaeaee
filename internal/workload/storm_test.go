package workload_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"multics/internal/aim"
	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// bootStormKernel boots a kernel scaled to hold users resident
// process states (an active-segment entry and a memory frame each).
func bootStormKernel(t *testing.T, users, nCPU int) *core.Kernel {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Processors = nCPU
	cfg.ASTPages = (users+256)/128 + 2
	cfg.WiredFrames = cfg.ASTPages + 6
	cfg.MemFrames = users + 256 + cfg.WiredFrames
	cfg.RootQuota = 2*users + 1024
	cfg.Packs = []core.PackSpec{{ID: "dska", Records: 8192}, {ID: "dskb", Records: 8192}}
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestRunStorm drives a full login/timesharing/logout storm through
// the kernel on the goroutine executor (the -race storm) and checks
// its books: every login logs out, every
// blocked process is woken, the scheduler dispatched work, and the
// post-storm kernel audit is clean.
func TestRunStorm(t *testing.T) {
	const users = 300
	k := bootStormKernel(t, users, 2)
	svc := workload.Service(k)
	st, err := workload.LoginStorm{
		Users:          users,
		Rounds:         3,
		QuantaPerRound: users + 16,
		BlockEvery:     7,
	}.Run(k, uproc.GoroutineExecutor{}, svc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Logins != users || st.Logouts != users {
		t.Errorf("logins %d logouts %d, want %d each", st.Logins, st.Logouts, users)
	}
	if st.Quanta == 0 || st.QuantaCycles <= 0 {
		t.Errorf("%d quanta in %d cycles: the storm ran no timesharing", st.Quanta, st.QuantaCycles)
	}
	if st.Blocked == 0 || st.Blocked != st.Woken {
		t.Errorf("blocked %d woken %d: every blocked process must be woken", st.Blocked, st.Woken)
	}
	ss := k.Procs.SchedStats()
	if ss.Dispatches == 0 || ss.Wakeups == 0 {
		t.Errorf("dispatches %d wakeups %d: the storm did not exercise the scheduler", ss.Dispatches, ss.Wakeups)
	}
	open := 0
	for _, rec := range svc.Records() {
		if rec.Open {
			open++
		}
	}
	if open != 0 {
		t.Errorf("%d session records still open after the storm", open)
	}
	if rep := audit.Run(k); !rep.Clean() {
		t.Errorf("post-storm audit dirty:\n%s", rep)
	}
}

// TestStormChurnRace hammers the process plane from real goroutines:
// login/logout churn racing against dispatch loops, event delivery,
// and blocking bodies — the -race exercise for the process table, the
// one ready queue, and the wakeup path.
func TestStormChurnRace(t *testing.T) {
	const (
		churners  = 4
		perChurn  = 24
		schedRuns = 40
	)
	k := bootStormKernel(t, churners*perChurn+8, 2)
	svc := workload.Service(k)
	var wg sync.WaitGroup
	errc := make(chan error, churners+1)
	// The churners: register, login, immediately log out and destroy.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perChurn; i++ {
				principal := fmt.Sprintf("churn%d-%d.race", c, i)
				if err := svc.Register(principal, "pw", aim.Top); err != nil {
					errc <- err
					return
				}
				sess, err := svc.Login(principal, "pw", aim.Bottom)
				if err != nil {
					errc <- err
					return
				}
				p := sess.Process.(*uproc.Process)
				if err := svc.Logout(sess, p.CPU()); err != nil {
					errc <- err
					return
				}
				if err := k.Procs.Destroy(p); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	// The scheduler: dispatch whatever the churners leave ready,
	// block every few quanta, wake by broadcast, deliver.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var n atomic.Int64
		for run := 0; run < schedRuns; run++ {
			_, err := k.Procs.RunQuantumWith(uproc.GoroutineExecutor{}, k.CPUs, 8, func(cpu *hw.Processor, p *uproc.Process) {
				if n.Add(1)%5 == 0 {
					// Blocked processes are woken by the broadcast
					// below — or destroyed blocked, which is legal.
					_ = k.Procs.Block(p, nil, 0)
				}
			})
			if err != nil {
				errc <- err
				return
			}
			if err := k.Procs.Wakeup(0, 0); err != nil { // broadcast
				errc <- err
				return
			}
			if _, err := k.Procs.DeliverEvents(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if bad := k.Procs.Audit(); len(bad) != 0 {
		t.Fatalf("process-plane audit dirty after churn: %v", bad)
	}
}

// TestSweepNoLostWakeup systematically explores the interleavings of
// a dispatch-then-block task against a wake-then-deliver task, with
// the sweep window on the uproc-block and uproc-deliver marks. In
// every explored schedule the process must end Ready: if delivery
// scans while the process is still running, the wakeup-waiting
// switch — not luck — must carry the wakeup into the block.
func TestSweepNoLostWakeup(t *testing.T) {
	maxSched, maxPre := schedsim.EnvBudget(32, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
		Window: func(d schedsim.Decision) bool {
			return d.Point == schedsim.PointMark &&
				(d.Detail == "uproc-block" || d.Detail == "uproc-deliver")
		},
	}, func(strat schedsim.Strategy) error {
		k := bootStormKernel(t, 8, 1)
		svc := workload.Service(k)
		if err := svc.Register("a.storm", "pw", aim.Top); err != nil {
			return err
		}
		sess, err := svc.Login("a.storm", "pw", aim.Bottom)
		if err != nil {
			return err
		}
		p := sess.Process.(*uproc.Process)
		ex := schedsim.New(schedsim.Config{Name: "wakeup", Strategy: strat})
		ex.Go("cpu0", func() {
			got, _, err := k.Procs.Dispatch()
			if err != nil {
				panic(fmt.Sprintf("dispatch: %v", err))
			}
			if got != p {
				panic(fmt.Sprintf("dispatched pid %d, want %d", got.ID(), p.ID()))
			}
			if err := k.Procs.Block(p, nil, 0); err != nil {
				panic(fmt.Sprintf("block: %v", err))
			}
		})
		ex.Go("waker", func() {
			if err := k.Procs.Wakeup(p.ID(), 1); err != nil {
				panic(fmt.Sprintf("wakeup: %v", err))
			}
			if _, err := k.Procs.DeliverEvents(); err != nil {
				panic(fmt.Sprintf("deliver: %v", err))
			}
		})
		if err := ex.Run(); err != nil {
			return err
		}
		if st := p.State(); st != uproc.Ready {
			return fmt.Errorf("process ended %v, want Ready: wakeup lost", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowDecisions == 0 {
		t.Fatalf("sweep vacuous: block/deliver marks never opened over %d schedules", rep.Schedules)
	}
	t.Logf("%d schedules, %d in-window decisions, truncated=%v",
		rep.Schedules, rep.WindowDecisions, rep.Truncated)
}

// TestSweepDispatchDestroy explores the interleavings of a
// dispatch-then-preempt task against a Destroy of the same process.
// However the schedule falls, the dispatch either misses the process
// or runs it, the destroy succeeds, and every virtual processor comes
// back: a dispatch or preemption that finds the state segment deleted
// under it must let its virtual processor go, not report an error or
// leak it.
func TestSweepDispatchDestroy(t *testing.T) {
	maxSched, maxPre := schedsim.EnvBudget(160, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
	}, func(strat schedsim.Strategy) error {
		k := bootStormKernel(t, 8, 1)
		svc := workload.Service(k)
		if err := svc.Register("a.storm", "pw", aim.Top); err != nil {
			return err
		}
		sess, err := svc.Login("a.storm", "pw", aim.Bottom)
		if err != nil {
			return err
		}
		p := sess.Process.(*uproc.Process)
		free := k.VProcs.FreeVPs()
		ex := schedsim.New(schedsim.Config{Name: "dispatch-destroy", Strategy: strat})
		ex.Go("cpu0", func() {
			got, _, err := k.Procs.Dispatch()
			if errors.Is(err, uproc.ErrNoReady) {
				return // destroyed before the dispatch looked
			}
			if err != nil {
				panic(fmt.Sprintf("dispatch: %v", err))
			}
			if got != p {
				panic(fmt.Sprintf("dispatched pid %d, want %d", got.ID(), p.ID()))
			}
			if err := k.Procs.Preempt(p); err != nil && !errors.Is(err, uproc.ErrNotRunning) {
				panic(fmt.Sprintf("preempt: %v", err))
			}
		})
		ex.Go("destroyer", func() {
			if err := k.Procs.Destroy(p); err != nil {
				panic(fmt.Sprintf("destroy: %v", err))
			}
		})
		if err := ex.Run(); err != nil {
			return err
		}
		if got := k.VProcs.FreeVPs(); got != free {
			return fmt.Errorf("free VPs %d, want %d: a virtual processor leaked", got, free)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d schedules, %d in-window decisions, truncated=%v",
		rep.Schedules, rep.WindowDecisions, rep.Truncated)
}

// sweepDestroyReuse is the harness of the sweeps below. It logs
// a.storm in, readies its process p with prepare, and then runs cpu0's
// body against a destroyer that destroys p and logs b.storm in, whose
// process takes p's record when no processor holds it, and p's state
// segment's AST slot. check inspects the second process once both
// tasks are done; the process audit must then be clean, and some
// schedule must reuse the record.
func sweepDestroyReuse(t *testing.T, name string, prepare func(k *core.Kernel, p *uproc.Process) error, cpu0 func(k *core.Kernel, p *uproc.Process), check func(k *core.Kernel, second *uproc.Process) error) {
	t.Helper()
	reused := 0
	maxSched, maxPre := schedsim.EnvBudget(160, 2)
	rep, err := schedsim.Sweep(schedsim.SweepConfig{
		MaxSchedules:   maxSched,
		MaxPreemptions: maxPre,
	}, func(strat schedsim.Strategy) error {
		k := bootStormKernel(t, 8, 1)
		svc := workload.Service(k)
		for _, who := range []string{"a.storm", "b.storm"} {
			if err := svc.Register(who, "pw", aim.Top); err != nil {
				return err
			}
		}
		sess, err := svc.Login("a.storm", "pw", aim.Bottom)
		if err != nil {
			return err
		}
		p := sess.Process.(*uproc.Process)
		if err := prepare(k, p); err != nil {
			return err
		}
		var second *uproc.Process
		ex := schedsim.New(schedsim.Config{Name: name, Strategy: strat})
		ex.Go("cpu0", func() { cpu0(k, p) })
		ex.Go("destroyer", func() {
			if err := k.Procs.Destroy(p); err != nil {
				panic(fmt.Sprintf("destroy: %v", err))
			}
			s, err := svc.Login("b.storm", "pw", aim.Bottom)
			if err != nil {
				panic(fmt.Sprintf("login: %v", err))
			}
			second = s.Process.(*uproc.Process)
		})
		if err := ex.Run(); err != nil {
			return err
		}
		if second == p {
			reused++
		}
		if err := check(k, second); err != nil {
			return err
		}
		if bad := k.Procs.Audit(); len(bad) != 0 {
			return fmt.Errorf("audit: %v", bad)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reused == 0 {
		t.Fatalf("sweep vacuous: no schedule of %d reused the destroyed record", rep.Schedules)
	}
	t.Logf("%d schedules (%d reusing the record), %d in-window decisions, truncated=%v",
		rep.Schedules, reused, rep.WindowDecisions, rep.Truncated)
}

// dispatchFirst dispatches p, the only ready process.
func dispatchFirst(k *core.Kernel, p *uproc.Process) error {
	if got, _, err := k.Procs.Dispatch(); err != nil || got != p {
		return fmt.Errorf("dispatch = %v, %v; want the first process", got, err)
	}
	return nil
}

// TestSweepDispatchDestroyReuse races a dispatch against the Destroy.
// However the schedule falls, a dispatcher that popped the first
// incarnation must not bind the second, which is also on the ready
// queue: the audit finds no running process queued, and the second is
// dispatched exactly once.
func TestSweepDispatchDestroyReuse(t *testing.T) {
	dispatched := 0
	sweepDestroyReuse(t, "dispatch-destroy-reuse",
		func(*core.Kernel, *uproc.Process) error {
			dispatched = 0
			return nil
		},
		func(k *core.Kernel, _ *uproc.Process) {
			got, _, err := k.Procs.Dispatch()
			if errors.Is(err, uproc.ErrNoReady) {
				return
			}
			if err != nil {
				panic(fmt.Sprintf("dispatch: %v", err))
			}
			if got.Principal() == "b.storm" {
				dispatched++
			}
		},
		func(k *core.Kernel, second *uproc.Process) error {
			// A dispatcher that bound the second incarnation through a
			// pop of the first left it running and queued at once.
			if bad := k.Procs.Audit(); len(bad) != 0 {
				return fmt.Errorf("audit: %v", bad)
			}
			// Whatever cpu0 left ready is dispatched now.
			err := uproc.SimExecutor{}.Run(k.CPUs[:1], func(*hw.Processor) {
				for {
					got, _, err := k.Procs.Dispatch()
					if err != nil {
						return
					}
					if got == second {
						dispatched++
					}
				}
			})
			if err != nil {
				return err
			}
			if dispatched != 1 {
				return fmt.Errorf("the second process was dispatched %d times, want once", dispatched)
			}
			return nil
		})
}

// TestSweepUnbindDestroyReuse races a preemption's state store against
// a Destroy and a login that takes the process's record and its state
// segment's AST slot. The store addresses the old state segment: it
// must never land in the second process's state, whose second word
// stays zero until that process is itself unbound.
func TestSweepUnbindDestroyReuse(t *testing.T) {
	sweepDestroyReuse(t, "unbind-destroy-reuse", dispatchFirst,
		func(k *core.Kernel, p *uproc.Process) {
			if err := k.Procs.Preempt(p); err != nil && !errors.Is(err, uproc.ErrNotRunning) {
				panic(fmt.Sprintf("preempt: %v", err))
			}
		},
		func(k *core.Kernel, second *uproc.Process) error {
			if w, err := k.Segs.ReadWord(second.StateSegment(), 0); err != nil || uint64(w) != second.ID() {
				return fmt.Errorf("second process's state word 0 = %d, %v; want its pid %d", w, err, second.ID())
			}
			if w, err := k.Segs.ReadWord(second.StateSegment(), 1); err != nil || w != 0 {
				return fmt.Errorf("second process's state word 1 = %d, %v; want 0: the first process's unbind stored into it", w, err)
			}
			return nil
		})
}

// TestSweepWakeupDestroyReuse races the delivery of a wakeup addressed
// to a blocked process against its Destroy and a login that takes its
// record. The wakeup is the first process's: the second must not
// receive it, so once dispatched, its own awaitless Block parks it.
func TestSweepWakeupDestroyReuse(t *testing.T) {
	sweepDestroyReuse(t, "wakeup-destroy-reuse",
		func(k *core.Kernel, p *uproc.Process) error {
			if err := dispatchFirst(k, p); err != nil {
				return err
			}
			if err := k.Procs.Block(p, nil, 0); err != nil {
				return err
			}
			return k.Procs.Wakeup(p.ID(), 0)
		},
		func(k *core.Kernel, _ *uproc.Process) {
			if _, err := k.Procs.DeliverEvents(); err != nil {
				panic(fmt.Sprintf("deliver: %v", err))
			}
		},
		func(k *core.Kernel, second *uproc.Process) error {
			if got, _, err := k.Procs.Dispatch(); err != nil || got != second {
				return fmt.Errorf("dispatch = %v, %v; want the second process", got, err)
			}
			if err := k.Procs.Block(second, nil, 0); err != nil {
				return err
			}
			if st := second.State(); st != uproc.Blocked {
				return fmt.Errorf("second process is %v after an awaitless block: it received the first's wakeup", st)
			}
			return nil
		})
}
