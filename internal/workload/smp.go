package workload

import (
	"cmp"
	"fmt"

	"multics/internal/aim"
	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/hw"
	"multics/internal/pageframe"
	"multics/internal/uproc"
)

// The multiprocessor storms below are registered in Catalogue alone,
// for the tests that iterate it. Each checks what it reads back as it
// goes, and its Run fails when the pressure it exists to apply did not
// happen. Run reads the frame manager's counters and the storage books
// between executor runs, never inside one.

// premiseFailed is the error of a storm whose premise did not happen:
// it names how far the frame manager's counters moved from before.
func premiseFailed(storm string, before, after pageframe.Stats) error {
	return fmt.Errorf("%s: premise not met: %d evictions, %d zero-page reclaims, %d shootdowns, %d associative hits, %d write-back errors",
		storm, after.Evictions-before.Evictions, after.ZeroEvictions-before.ZeroEvictions,
		after.Shootdowns-before.Shootdowns, after.AssocHits-before.AssocHits, after.WriteBackErrors-before.WriteBackErrors)
}

// books returns the pages charged across every quota cell of k, and
// an error unless they equal the records allocated across every pack.
// The probes are metered.
func books(k *core.Kernel) (int, error) {
	charged, allocated, problems := audit.Balance(k)
	if len(problems) != 0 {
		return 0, fmt.Errorf("accounting probes failed: %v", problems)
	}
	if charged != allocated {
		return 0, fmt.Errorf("%d pages charged vs %d records allocated", charged, allocated)
	}
	return charged, nil
}

// writeRead has w write base+pg into word off of each of the first
// pages pages of segno, then read every one back.
func writeRead(k *core.Kernel, w *Worker, segno, pages, off int, base hw.Word) error {
	for pg := 0; pg < pages; pg++ {
		if err := k.Write(w.CPU, w.Proc, segno, pg*hw.PageWords+off, base+hw.Word(pg)); err != nil {
			return fmt.Errorf("page %d: write: %w", pg, err)
		}
	}
	for pg := 0; pg < pages; pg++ {
		got, err := k.Read(w.CPU, w.Proc, segno, pg*hw.PageWords+off)
		if err != nil {
			return fmt.Errorf("page %d: read: %w", pg, err)
		}
		if got != base+hw.Word(pg) {
			return fmt.Errorf("page %d reads %d, want %d", pg, got, base+hw.Word(pg))
		}
	}
	return nil
}

// WriteReadStorm has each worker write one word into each of its
// file's 16 pages and read every one back, eight rounds over, in a
// pool smaller than the working sets: the workers evict each other's
// dirty pages and fault them back in, possibly while the eviction's
// write-back is still on its way to the record. Run fails if nothing
// was evicted.
func WriteReadStorm() Scenario {
	const pages, rounds = 16, 8
	var ws []*Worker
	return Scenario{
		Name:   "write-read-storm",
		Config: func(c *core.Config) { c.MemFrames = 28; c.WiredFrames = 8 },
		Setup:  workers(&ws, Files{Prefix: "user"}),
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			before := k.Frames.Stats()
			if err := Run(ex, ws, func(w *Worker) error {
				for r := 0; r < rounds; r++ {
					if err := writeRead(k, w, w.Segno, pages, r, hw.Word(1000*(w.CPU.ID+1))); err != nil {
						return fmt.Errorf("round %d: %w", r, err)
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if st := k.Frames.Stats(); st.Evictions == before.Evictions {
				return premiseFailed("write-read storm", before, st)
			}
			return nil
		},
	}
}

// GateStorm has four processors make interleaved gate calls, six
// rounds each: create a file, grow it by quota-charged writes, read it
// back, truncate it and delete it, against the shared hierarchy, quota
// cells, frame pool and packs. Everything the storm creates it
// deletes, so Run fails unless the books return exactly to where they
// stood.
func GateStorm() Scenario {
	const rounds, pages = 6, 6
	var ws []*Worker
	return Scenario{
		Name:   "gate-storm",
		Config: func(c *core.Config) { c.Processors = 4; c.MemFrames = 40; c.WiredFrames = 8 },
		Setup:  workers(&ws, Files{Prefix: "gate"}),
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			charged, err := books(k)
			if err != nil {
				return err
			}
			if err := Run(ex, ws, func(w *Worker) error {
				return script(func(must func(error)) {
					for r := 0; r < rounds; r++ {
						name := fmt.Sprintf("w%d-r%d", w.CPU.ID, r)
						_, err := k.CreateFile(w.CPU, w.Proc, nil, name, nil, aim.Bottom)
						must(err)
						segno, err := k.OpenPath(w.CPU, w.Proc, []string{name})
						must(err)
						must(writeRead(k, w, segno, pages, w.CPU.ID, hw.Word(1000*(w.CPU.ID+1)+r)))
						must(k.Truncate(w.CPU, w.Proc, segno, 1))
						must(k.Delete(w.CPU, w.Proc, nil, name))
					}
				})
			}); err != nil {
				return err
			}
			if after, err := books(k); err != nil || after != charged {
				return cmp.Or(err, fmt.Errorf("gate storm: %d pages charged after, %d before", after, charged))
			}
			return nil
		},
	}
}

// ZeroReclaimStorm has one oscillating writer (Oscillate, six rounds
// over eight materialised pages) per processor, on cpus processors, in
// 16 pageable frames: evictions keep reclaiming zero pages whose owners
// hold cached translations, so a store can land after the evictor's
// zero scan and must be caught when the shootdown returns. Each worker
// owns its pages, so no two processors race a page's quota-trap first
// touch, which the descriptor lock does not serialise. Run fails
// unless the storm evicted, reclaimed zero pages and shot translations
// down, with no write-back error and balanced books; it then deletes
// the files.
func ZeroReclaimStorm(cpus int) Scenario {
	const rounds, pages = 6, 8
	var ws []*Worker
	return Scenario{
		Name:   fmt.Sprintf("zero-reclaim-smp%d", cpus),
		Config: func(c *core.Config) { c.Processors = cpus; c.MemFrames = 24; c.WiredFrames = 8 },
		Setup:  workers(&ws, Files{Prefix: "osc", Pages: pages}),
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			before := k.Frames.Stats()
			if err := Run(ex, ws, func(w *Worker) error { return Oscillate(k, w, rounds, pages) }); err != nil {
				return err
			}
			if st := k.Frames.Stats(); st.Evictions == before.Evictions || st.ZeroEvictions == before.ZeroEvictions ||
				st.Shootdowns == before.Shootdowns || st.WriteBackErrors != 0 {
				return premiseFailed("zero-reclaim storm", before, st)
			}
			if _, err := books(k); err != nil {
				return err
			}
			return serial(k, ex, func(must func(error)) {
				for _, w := range ws {
					must(k.Delete(w.CPU, w.Proc, nil, fmt.Sprintf("osc%d", w.CPU.ID)))
				}
			})
		},
	}
}

// ShootdownStorm has four processors share one public segment and
// rewrite a private churn file each under heavy frame pressure, so
// shared pages are evicted and faulted back while other processors
// hold cached translations of them. Each processor owns one word of
// every shared page, which a translation surviving a shootdown would
// read from a reused frame. Setup materialises every page serially
// (concurrent first touches of one page take the quota-trap path,
// which the descriptor lock does not serialise), each shared page with
// a sentinel word so eviction never finds it zero. Run fails unless
// the storm evicted, shot translations down and hit the associative
// memory, and left the books where they stood; it then deletes the
// churn files.
func ShootdownStorm() Scenario {
	const rounds, sharedPages, churnPages = 5, 6, 16
	var (
		ws     []*Worker
		shared []int // each worker's segment number of the shared segment
	)
	return Scenario{
		Name:   "shootdown-storm",
		Config: func(c *core.Config) { c.Processors = 4; c.MemFrames = 40; c.WiredFrames = 8 },
		Setup: func(k *core.Kernel, ex uproc.Executor) error {
			if err := workers(&ws, Files{Prefix: "churn"})(k, ex); err != nil {
				return err
			}
			return serial(k, ex, func(must func(error)) {
				for _, w := range ws {
					for pg := 0; pg < churnPages; pg++ {
						must(k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords, hw.Word(pg+1)))
					}
				}
				w0 := ws[0]
				_, err := k.CreateFile(w0.CPU, w0.Proc, nil, "shared", directory.Public(hw.Read|hw.Write), aim.Bottom)
				must(err)
				shared = shared[:0]
				for _, w := range ws {
					segno, err := k.OpenPath(w.CPU, w.Proc, []string{"shared"})
					must(err)
					shared = append(shared, segno)
				}
				for pg := 0; pg < sharedPages; pg++ {
					must(k.Write(w0.CPU, w0.Proc, shared[0], pg*hw.PageWords+len(ws), 1))
				}
			})
		},
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			charged, err := books(k)
			if err != nil {
				return err
			}
			before := k.Frames.Stats()
			if err := Run(ex, ws, func(w *Worker) error {
				wi := w.CPU.ID
				return script(func(must func(error)) {
					for r := 0; r < rounds; r++ {
						base := hw.Word(10000*(wi+1) + 100*r)
						for pg := 0; pg < sharedPages; pg++ {
							must(k.Write(w.CPU, w.Proc, shared[wi], pg*hw.PageWords+wi, base+hw.Word(pg)))
						}
						// The churn evicts the shared pages out from
						// under the other processors' caches.
						for pg := 0; pg < churnPages; pg++ {
							must(k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords+1+r, hw.Word(wi*churnPages+pg+1)))
						}
						for pg := 0; pg < sharedPages; pg++ {
							got, err := k.Read(w.CPU, w.Proc, shared[wi], pg*hw.PageWords+wi)
							must(err)
							if got != base+hw.Word(pg) {
								must(fmt.Errorf("round %d shared page %d slot %d reads %d, want %d (stale translation?)", r, pg, wi, got, base+hw.Word(pg)))
							}
						}
					}
				})
			}); err != nil {
				return err
			}
			if st := k.Frames.Stats(); st.Evictions == before.Evictions || st.Shootdowns == before.Shootdowns || st.AssocHits == before.AssocHits {
				return premiseFailed("shootdown storm", before, st)
			}
			if after, err := books(k); err != nil || after != charged {
				return cmp.Or(err, fmt.Errorf("shootdown storm: %d pages charged after, %d before", after, charged))
			}
			return serial(k, ex, func(must func(error)) {
				for _, w := range ws {
					must(k.Delete(w.CPU, w.Proc, nil, fmt.Sprintf("churn%d", w.CPU.ID)))
				}
			})
		},
	}
}

// SharedPageFaults has every processor take the missing-page fault on
// one page together: one process, attached to each, reads back the
// word it wrote before its segment was deactivated. The descriptor
// lock lets exactly one processor service the fault; the others wait
// for it and proceed, with no interpretive retranslation. Run fails
// unless exactly one fault service ran.
func SharedPageFaults() Scenario {
	var ws []*Worker
	return Scenario{
		Name: "shared-page-faults",
		Setup: func(k *core.Kernel, ex uproc.Executor) error {
			ws = ws[:0]
			return serial(k, ex, func(must func(error)) {
				w, err := rootWorker(k, "alice.sys", "f", nil)
				must(err)
				must(k.Write(w.CPU, w.Proc, w.Segno, 0, 42))
				e, err := w.Proc.KST().Entry(w.Segno)
				must(err)
				must(k.Segs.Deactivate(e.UID))
				for _, cpu := range k.CPUs {
					k.Attach(cpu, w.Proc)
					ws = append(ws, &Worker{CPU: cpu, Proc: w.Proc, Segno: w.Segno})
				}
			})
		},
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			before := k.Frames.Stats().Faults
			if err := Run(ex, ws, func(w *Worker) error { return Scan(k, w, 1, 42) }); err != nil {
				return err
			}
			if n := k.Frames.Stats().Faults - before; n != 1 {
				return fmt.Errorf("shared page faults: %d fault services for one page", n)
			}
			return nil
		},
	}
}
