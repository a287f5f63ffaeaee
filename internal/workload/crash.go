package workload

import (
	"fmt"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/uproc"
)

// Crash is the crash half of the one crash-and-reboot path every
// crash test and tool takes. It boots a kernel from cfg shaped by s
// and runs s.Setup, then installs plan on the disk plane for s.Run and
// the orderly shutdown after it (core.Kernel.Shutdown), all under ex,
// and returns the packs, demounted: the disk state the next
// incarnation boots on through core.Config.Mount. A plan with no crash
// point counts the mutations the window makes, so k from 1 to
// plan.Mutations() names every crash point. Once the plan has crashed
// every disk operation fails, so s.Run's error is expected and
// dropped; before it, an error is the scenario's own and is returned.
func Crash(s Scenario, cfg core.Config, ex uproc.Executor, plan *disk.FaultPlan) ([]*disk.Pack, error) {
	s.Configure(&cfg)
	k, err := core.Boot(cfg)
	if err != nil {
		return nil, err
	}
	if s.Setup != nil {
		if err := s.Setup(k, ex); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", s.Name, err)
		}
	}
	k.Vols.SetFaultPlan(plan)
	err = s.Run(k, ex)
	if err == nil {
		err = serial(k, ex, func(must func(error)) { must(k.Shutdown()) })
	}
	if err != nil && !plan.Crashed() {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	var packs []*disk.Pack
	for _, id := range k.Vols.Packs() {
		p, err := k.Vols.Demount(id)
		if err != nil {
			return nil, err
		}
		packs = append(packs, p)
	}
	return packs, nil
}

// PackOverflow is the relocation workload of the crash story. Setup
// commits three files of three pages each in a quota directory:
// written, then deactivated, so every page is on its record. Run grows
// each file to thirty pages, a page of each in turn, on a root pack of
// records records: the pack overflows and the files relocate to the
// second pack, four times larger. Page pg of file f holds one word,
// pattern(f, pg), in word 0. Its Contract is what a crash anywhere in
// Run must leave: each file one table-of-contents entry, its committed
// pages holding their words, every later page its own word or zeros.
func PackOverflow(records int) Scenario {
	const files, committed, grown = 3, 3, 30
	pattern := func(f, pg int) hw.Word { return hw.Word(100_000 + f*1_000 + pg) }
	var (
		w     *Worker
		segno [files]int
		uid   [files]uint64
	)
	return Scenario{
		Name: "pack-overflow",
		Config: func(c *core.Config) {
			c.Packs = []core.PackSpec{{ID: "dska", Records: records}, {ID: "dskb", Records: 4 * records}}
		},
		Setup: func(k *core.Kernel, ex uproc.Executor) error {
			return serial(k, ex, func(must func(error)) {
				p, err := k.CreateProcess("overflow.sys", aim.Bottom)
				must(err)
				w = &Worker{CPU: k.CPUs[0], Proc: p}
				k.Attach(w.CPU, p)
				dir, err := k.CreateDir(w.CPU, p, nil, "work", directory.Public(hw.Read|hw.Write), aim.Bottom)
				must(err)
				must(k.DesignateQuota(w.CPU, p, dir, 200))
				for f := range segno {
					path := []string{"work", fmt.Sprintf("f%d", f)}
					_, err := k.CreateFile(w.CPU, p, path[:1], path[1], nil, aim.Bottom)
					must(err)
					segno[f], err = k.OpenPath(w.CPU, p, path)
					must(err)
					for pg := 0; pg < committed; pg++ {
						must(k.Write(w.CPU, p, segno[f], pg*hw.PageWords, pattern(f, pg)))
					}
					e, err := p.KST().Entry(segno[f])
					must(err)
					uid[f] = e.UID
					must(k.Segs.Deactivate(e.UID))
				}
			})
		},
		Run: func(k *core.Kernel, ex uproc.Executor) error {
			return serial(k, ex, func(must func(error)) {
				for pg := committed; pg < grown; pg++ {
					for f := range segno {
						must(k.Write(w.CPU, w.Proc, segno[f], pg*hw.PageWords, pattern(f, pg)))
					}
				}
			})
		},
		Contract: func(vols *disk.Volumes) error {
			buf := make([]hw.Word, hw.PageWords)
			for f := range uid {
				var (
					held []*disk.Pack
					e    disk.TOCEntry
				)
				for _, id := range vols.Packs() {
					p, err := vols.Pack(id)
					if err != nil {
						return err
					}
					p.EachEntry(func(_ disk.TOCIndex, te disk.TOCEntry) {
						if te.UID == uid[f] {
							held, e = append(held, p), te
						}
					})
				}
				if len(held) != 1 {
					return fmt.Errorf("file %d: %d table-of-contents entries, want 1", f, len(held))
				}
				for pg := 0; pg < max(len(e.Map), committed); pg++ {
					if pg >= len(e.Map) || e.Map[pg].State != disk.PageStored {
						if pg < committed {
							return fmt.Errorf("file %d: committed page %d is not stored", f, pg)
						}
						continue
					}
					if err := held[0].ReadRecord(e.Map[pg].Record, buf); err != nil {
						return err
					}
					for off, got := range buf {
						want := hw.Word(0)
						if off == 0 && (pg < committed || got != 0) {
							want = pattern(f, pg)
						}
						if got != want {
							return fmt.Errorf("file %d page %d word %d holds %d, want %d", f, pg, off, got, want)
						}
					}
				}
			}
			return nil
		},
	}
}
