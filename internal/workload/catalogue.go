package workload

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/disk"
	"multics/internal/fnp"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/uproc"
)

// A Scenario is one registered workload. Every harness boots its own
// base configuration, applies Config on top, and then drives Setup and
// Run on the booted kernel under an executor of its choosing.
type Scenario struct {
	// Name labels the scenario in test and tool output.
	Name string
	// Config shapes the machine on top of a harness's base
	// configuration; nil leaves it as it is. It never turns tracing
	// on: that is the harness's choice.
	Config func(*core.Config)
	// Setup, when present, prepares the kernel and is not measured;
	// Run is the measured phase. A scenario value keeps what Setup
	// made for Run, so it drives one kernel at a time.
	Setup, Run func(k *core.Kernel, ex uproc.Executor) error
	// Contract, when present, is what a crash at any disk mutation of
	// Run must leave on the packs once they are salvaged (see Crash):
	// the crash loop checks it on the rebooted machine's packs, before
	// anything runs there.
	Contract func(vols *disk.Volumes) error
}

// Configure applies s.Config, if there is one, to cfg.
func (s Scenario) Configure(cfg *core.Config) {
	if s.Config != nil {
		s.Config(cfg)
	}
}

// Drive runs s.Setup, if there is one, and then s.Run.
func (s Scenario) Drive(k *core.Kernel, ex uproc.Executor) error {
	if s.Setup != nil {
		if err := s.Setup(k, ex); err != nil {
			return err
		}
	}
	return s.Run(k, ex)
}

// Catalogue returns every registered scenario once, at its test size:
// small enough for a test to boot each several times, on a machine
// shape that exercises it.
func Catalogue() []Scenario {
	logins, _ := Logins(24, 3)
	conns, _ := ConnectionStorm(2000)
	plane, _ := ConnectionPlane(500, 10)
	osc := Oscillation(3, 6)
	// Two frames per processor on top of a pool smaller than the
	// workers' files, so the writers evict each other's pages.
	osc.Config = func(c *core.Config) { c.MemFrames = 20 + 2*c.Processors; c.WiredFrames = 8 }
	return []Scenario{
		FaultStorm(16, 32, 100, false), PagingStorm(16), LatencyStorm(50), DiskScan(24), logins, conns, osc,
		WriteReadStorm(), GateStorm(), ZeroReclaimStorm(2), ZeroReclaimStorm(4), ShootdownStorm(), SharedPageFaults(),
		TreeWalks(), Quanta(), RemoteSegment(), TraceTour(), FileUsers(3, 4, 6), plane, PackOverflow(64),
	}
}

// serial runs the script body (see script) on k's first processor
// under ex. Scenarios run their serial phases through it, so every
// kernel call they make, except worker creation (see workers), is on
// ex.
func serial(k *core.Kernel, ex uproc.Executor, body func(must func(error))) error {
	return onEach(ex, k.CPUs[:1], func(*hw.Processor) error { return script(body) })
}

// script runs body, a straight-line script every step of which is
// fatal to it: body hands each step's error to must, and the first
// that is not nil ends body and is returned. must is called between
// kernel calls, never inside one.
func script(body func(must func(error))) (err error) {
	type failed struct{ error }
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failed)
			if !ok {
				panic(r)
			}
			err = f.error
		}
	}()
	body(func(err error) {
		if err != nil {
			panic(failed{err})
		}
	})
	return nil
}

// workers is a Setup that gives each processor a worker with a private
// file shaped by f (NewWorkers), into *ws.
func workers(ws *[]*Worker, f Files) func(*core.Kernel, uproc.Executor) error {
	return func(k *core.Kernel, ex uproc.Executor) (err error) {
		*ws, err = NewWorkers(k, ex, len(k.CPUs), f)
		return err
	}
}

// FaultStorm is kernelbench's fault storm (P4, P5, P9 and the
// ablations): one process on the first processor writes a pages-page
// file, then references its pages round-robin refs times, writing them
// when write is set and reading them otherwise. The machine has frames
// pageable frames; fewer than pages, and every reference faults and
// evicts.
func FaultStorm(frames, pages, refs int, write bool) Scenario {
	var w *Worker
	name := "fault-storm"
	if write {
		name = "write-fault-storm"
	}
	return Scenario{
		Name:   name,
		Config: func(c *core.Config) { c.MemFrames = frames + 8; c.WiredFrames = 8 },
		Setup: func(k *core.Kernel, ex uproc.Executor) error {
			return serial(k, ex, func(must func(error)) {
				var err error
				w, err = HotFile(k, "u.x", pages)
				must(err)
			})
		},
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			return serial(k, ex, func(must func(error)) {
				for i := 0; i < refs; i++ {
					off := (i % pages) * hw.PageWords
					if write {
						must(k.Write(w.CPU, w.Proc, w.Segno, off, hw.Word(i)))
					} else {
						_, err := k.Read(w.CPU, w.Proc, w.Segno, off)
						must(err)
					}
				}
			})
		},
	}
}

// PagingStorm is kernelbench's paging and quota storm (P10, P11):
// rounds rounds of GrowReadTruncate over an 8-page file, split evenly
// across the processors, each worker in a quota directory of its own,
// with 40 pageable frames so pages cycle through disk.
func PagingStorm(rounds int) Scenario {
	var ws []*Worker
	return Scenario{
		Name:   "quota-growth-truncate",
		Config: func(c *core.Config) { c.MemFrames = 48; c.WiredFrames = 8 },
		Setup:  workers(&ws, Files{Prefix: "par", Quota: 4096}),
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			return Run(ex, ws, func(w *Worker) error {
				for r := 0; r < rounds/len(ws); r++ {
					if err := GrowReadTruncate(k, w, r, 8); err != nil {
						return err
					}
				}
				return nil
			})
		},
	}
}

// LatencyStorm is kernelbench's fault-service latency storm (P13):
// each worker writes a 32-page file larger than its share of primary
// memory, then reads it round-robin reads times, so every service in
// the steady state fetches from disk.
func LatencyStorm(reads int) Scenario {
	const filePages = 32
	var ws []*Worker
	return Scenario{
		Name: "latency-storm",
		Config: func(c *core.Config) {
			// The pageable pool grows with the processors, keeping the
			// overcommit moderate enough that a fetched page normally
			// survives until its faulter's rereference, but stays
			// below one worker's file, so the steady-state reads always
			// fetch from disk even when one worker runs far ahead.
			c.MemFrames = min(16+8*c.Processors, 8+filePages-2)
			c.WiredFrames = 8
		},
		Setup: workers(&ws, Files{Prefix: "lat", Quota: 4096}),
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			return Run(ex, ws, func(w *Worker) error {
				return script(func(must func(error)) {
					for i := 0; i < filePages; i++ {
						must(retryFaultLoop(func() error {
							return k.Write(w.CPU, w.Proc, w.Segno, i*hw.PageWords, hw.Word(i+1))
						}))
					}
					for r := 0; r < reads; r++ {
						must(retryFaultLoop(func() error {
							_, err := k.Read(w.CPU, w.Proc, w.Segno, (r%filePages)*hw.PageWords)
							return err
						}))
					}
				})
			})
		},
	}
}

// retryFaultLoop retries f while the kernel reports a fault loop: under
// deliberate overcommit the other processors can evict a faulter's page
// before each of its rereferences. That is the thrashing a real user
// program retries, and every retried service lands in the histograms.
func retryFaultLoop(f func() error) error {
	err := f()
	for tries := 0; errors.Is(err, core.ErrFaultLoop) && tries < 25; tries++ {
		err = f()
	}
	return err
}

// DiskScan is kernelbench's disk-pipeline storm (P15): each worker
// writes a pages-page file, which is then deactivated so every page
// lives only on its disk record, and Run scans the files sequentially,
// a pure fault storm of stored pages. With more than one pack new
// files spread across them, and memory holds every file plus
// read-ahead slack, so the storm measures the pipeline, not eviction.
// Run fails if the scan got no read-ahead hit: then it measured
// nothing of the pipeline.
func DiskScan(pages int) Scenario {
	var ws []*Worker
	return Scenario{
		Name: "sequential-readahead",
		Config: func(c *core.Config) {
			c.SpreadPacks = len(c.Packs) > 1
			c.MemFrames = c.Processors*pages + 64
			c.WiredFrames = 8
		},
		Setup: func(k *core.Kernel, ex uproc.Executor) error {
			if err := workers(&ws, Files{Prefix: "par", Quota: 4096})(k, ex); err != nil {
				return err
			}
			return serial(k, ex, func(must func(error)) {
				for _, w := range ws {
					for pg := 0; pg < pages; pg++ {
						must(k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords, hw.Word(pg+1)))
					}
					e, err := w.Proc.KST().Entry(w.Segno)
					must(err)
					must(k.Segs.Deactivate(e.UID))
				}
			})
		},
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			hits := k.Frames.Stats().PrefetchHits
			if err := Run(ex, ws, func(w *Worker) error { return Scan(k, w, pages, 1) }); err != nil {
				return err
			}
			if k.Frames.Stats().PrefetchHits == hits {
				return errors.New("sequential scan produced no read-ahead hits")
			}
			return nil
		},
	}
}

// Logins is the timesharing login storm of kernelbench P12 and
// multicsim -storm: a LoginStorm of users users through the answering
// service, with two rounds of enough quanta per processor to dispatch
// every session twice and every blockEvery-th session blocking in
// each round, woken before the next. The machine
// gets an active-segment entry and a resident state page per user, so
// the process states stay resident and the storm measures the
// scheduler, not the pager. The storm's statistics are filled in when
// Run returns.
func Logins(users, blockEvery int) (Scenario, *LoginStats) {
	res := new(LoginStats)
	return Scenario{
		Name: "login-storm",
		Config: func(c *core.Config) {
			c.ASTPages = (users+256)/128 + 2
			c.WiredFrames = c.ASTPages + 6
			c.MemFrames = max(c.MemFrames, users+512+c.WiredFrames)
			c.Packs = slices.Clone(c.Packs)
			for i := range c.Packs {
				c.Packs[i].Records = max(c.Packs[i].Records, 16384)
			}
		},
		Run: func(k *core.Kernel, ex uproc.Executor) (err error) {
			storm := LoginStorm{Users: users, Rounds: 2, QuantaPerRound: 2*users/len(k.CPUs) + 32, BlockEvery: blockEvery}
			*res, err = storm.Run(k, ex, Service(k))
			return err
		},
	}, res
}

// A ConnStormResult is what only the connection storm knows.
type ConnStormResult struct {
	Node   *core.NetNode
	Logins int
	// StormCycles is the meter's advance across the storm and its
	// final drain, without the isolation probe that follows.
	StormCycles int64
	// SlowDrops and HealthyDrops are the isolation probe's drops on
	// the flooded line and on its neighbor on the same shard.
	SlowDrops, HealthyDrops int64
}

// ConnectionStorm is kernelbench's front-end connection storm (P16).
// Setup attaches a front-end processor with conns lines and logs 32
// users in by terminal frames through the answering service. Run
// storms one frame per line: each processor delivers its range in
// bursts of 64, draining the shards it owns after each, in executor
// runs of 1,024 bursts (well inside the step backstop), then a final
// drain. Run ends with the isolation probe: one line flooded past its
// credit window drops its own frames, its shard neighbor loses none.
func ConnectionStorm(conns int) (Scenario, *ConnStormResult) {
	const logins, burst, burstsPerRun = 32, 64, 1024
	res := new(ConnStormResult)
	payload := []hw.Word{0o101, 0o777}
	deliver := func(cpu *hw.Processor, line int, words []hw.Word) error {
		return res.Node.Mux.Deliver(cpu, "front-end", netmux.Frame{Channel: line, Payload: words})
	}
	return Scenario{
		Name: "connection-storm",
		Config: func(c *core.Config) {
			c.ASTPages = (logins+256)/128 + 2
			c.WiredFrames = c.ASTPages + 6
			c.MemFrames = logins + 256 + c.WiredFrames
		},
		Setup: func(k *core.Kernel, ex uproc.Executor) error {
			*res = ConnStormResult{}
			return serial(k, ex, func(must func(error)) {
				var err error
				res.Node, err = k.AttachFNP(conns, 0)
				must(err)
				svc := Service(k)
				connector := answering.NewConnector(svc, func(proc any) error {
					return k.Procs.Destroy(proc.(*uproc.Process))
				})
				for i := 0; i < logins; i++ {
					must(svc.Register(answering.StormPrincipal(i), stormPassword, aim.Top))
					line := answering.EncodeLine("login " + answering.StormPrincipal(i) + " " + stormPassword)
					must(deliver(k.CPUs[0], i, append(line, 0o777)))
				}
				for sh := 0; sh < res.Node.Terminals.Shards(); sh++ {
					res.Node.Terminals.Drain(sh, func(d fnp.Delivery) { err = cmp.Or(err, connector.HandleFrame(d.Conn, d.Data)) })
				}
				must(err)
				if res.Logins = int(connector.Stats().Logins); res.Logins != logins {
					must(fmt.Errorf("connection storm: %d logins, want %d", res.Logins, logins))
				}
			})
		},
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			terms, nCPU := res.Node.Terminals, len(k.CPUs)
			start := k.Meter.Snapshot()
			per := (conns + nCPU - 1) / nCPU
			for lo := 0; lo < per; lo += burst * burstsPerRun {
				if err := onEach(ex, k.CPUs, func(cpu *hw.Processor) error {
					first, last := cpu.ID*per, min((cpu.ID+1)*per, conns)
					for b := first + lo; b < min(first+lo+burst*burstsPerRun, last); b += burst {
						for id := b; id < min(b+burst, last); id++ {
							if err := deliver(cpu, id, payload); err != nil {
								return err
							}
						}
						for sh := cpu.ID; sh < terms.Shards(); sh += nCPU {
							terms.Drain(sh, nil)
						}
					}
					return nil
				}); err != nil {
					return err
				}
			}
			return serial(k, ex, func(must func(error)) {
				for sh := 0; sh < terms.Shards(); sh++ {
					terms.Drain(sh, nil)
				}
				res.StormCycles = k.Meter.Since(start)
				slow := logins + 1
				healthy := slow + terms.Shards()
				for i := 0; i < fnp.RingSlots+2; i++ {
					must(deliver(k.CPUs[0], slow, payload))
				}
				must(deliver(k.CPUs[0], healthy, payload))
				res.SlowDrops, res.HealthyDrops = terms.ConnStats(slow).Drops, terms.ConnStats(healthy).Drops
				if res.SlowDrops == 0 || res.HealthyDrops != 0 {
					must(fmt.Errorf("connection storm: isolation broken: slow line dropped %d, healthy neighbor %d", res.SlowDrops, res.HealthyDrops))
				}
			})
		},
	}, res
}

// Oscillation is multicsim -sched-seed's storm: one oscillating writer
// (Oscillate) per processor, rounds rounds over pages pages of a
// private file.
func Oscillation(rounds, pages int) Scenario {
	var ws []*Worker
	return Scenario{
		Name:  "oscillation",
		Setup: workers(&ws, Files{Prefix: "sched"}),
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			return Run(ex, ws, func(w *Worker) error { return Oscillate(k, w, rounds, pages) })
		},
	}
}

// TreeWalks has one process create a pathname four directories deep
// and walk it twenty times: directory search and the known-segment
// machinery, with no paging pressure.
func TreeWalks() Scenario {
	return Scenario{
		Name: "directory-tree-walks",
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			return serial(k, ex, func(must func(error)) {
				p, err := k.CreateProcess("walk.x", aim.Bottom)
				must(err)
				cpu, path := k.CPUs[0], []string{"d0", "d1", "d2", "d3", "leaf"}
				k.Attach(cpu, p)
				for i, name := range path[:len(path)-1] {
					_, err := k.CreateDir(cpu, p, path[:i], name, directory.Public(hw.Read|hw.Write), aim.Bottom)
					must(err)
				}
				_, err = k.CreateFile(cpu, p, path[:len(path)-1], path[len(path)-1], nil, aim.Bottom)
				must(err)
				for i := 0; i < 20; i++ {
					_, err := k.WalkPath(cpu, p, path)
					must(err)
				}
			})
		},
	}
}

// Quanta is the scheduler's quantum loop on its own: four processes
// and fifteen quanta per processor, on one processor.
func Quanta() Scenario {
	return Scenario{
		Name:   "scheduler-quanta",
		Config: func(c *core.Config) { c.Processors = 1 },
		Setup: func(k *core.Kernel, ex uproc.Executor) error {
			return serial(k, ex, func(must func(error)) {
				for i := 0; i < 4; i++ {
					_, err := k.CreateProcess(fmt.Sprintf("u%d.x", i), aim.Bottom)
					must(err)
				}
			})
		},
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			_, err := k.Procs.RunQuantumWith(ex, k.CPUs, 15, nil)
			return err
		},
	}
}
