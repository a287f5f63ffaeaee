package main

import (
	"fmt"

	"multics/internal/core"
	"multics/internal/hw"
)

// paging_mix shape: one worker per CPU, each with its own pagingPages
// file under its own quota directory. pagingFrames pageable frames hold
// less than the 2 x pagingPages working set, so the workers evict each
// other's pages. A batch is one round: both CPUs, under the sim
// executor, rewrite one seeded word in every page of their file and
// read the words back, both in stride-pagingStride page order, which
// defeats sequential read-ahead.
//
// The files grow once, in set-up, one worker at a time, and are never
// truncated: under eviction pressure the kernel loses writes to pages
// that grow, or come back from deactivation, while the other processor
// runs (see README.md). The workload stays inside what the kernel does
// correctly, so every value it reads back is checked.
const (
	pagingPages  = 16
	pagingStride = 7
	pagingFrames = 24
)

type pagingSize struct{ warmup, sim int }

var (
	pagingFull = pagingSize{warmup: 8, sim: 256}
	pagingTiny = pagingSize{warmup: 2, sim: 4}
)

type pagingMix struct {
	h       *harness
	sz      pagingSize
	k       *core.Kernel
	rng     *rng
	workers []*fileWorker
	op      int64
	// offs and vals are one round's inputs per worker: the word of each
	// page it writes, and the value.
	offs, vals [][pagingPages]int64
}

func setupPagingMix(h *harness, seed int64, tiny bool) (instance, error) {
	sz := pagingFull
	if tiny {
		sz = pagingTiny
	}
	k, err := h.boot(seed, func(c *core.Config) {
		c.WiredFrames = 8
		c.MemFrames = c.WiredFrames + pagingFrames
	})
	if err != nil {
		return nil, err
	}
	ws, err := newFileWorkers(k, "pm")
	if err != nil {
		return nil, err
	}
	w := &pagingMix{
		h: h, sz: sz, k: k, rng: newRNG(seed, 2), workers: ws,
		offs: make([][pagingPages]int64, len(ws)),
		vals: make([][pagingPages]int64, len(ws)),
	}
	// Grow each file alone on its worker's processor.
	w.draw()
	for wi := range ws {
		var werr error
		if err := h.runTasks(int64(w.rng.next()>>1), k.CPUs[wi:wi+1], func(*hw.Processor) { werr = w.writeAll(wi) }); err != nil {
			return nil, err
		}
		if werr != nil {
			return nil, werr
		}
	}
	for b := 0; b < sz.warmup; b++ {
		if _, err := w.batch(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// draw generates the next round's inputs for every worker. Values are
// nonzero, so no page is ever all-zero and reclaimed.
func (w *pagingMix) draw() {
	for wi := range w.workers {
		for pg := 0; pg < pagingPages; pg++ {
			w.offs[wi][pg] = int64(pg*hw.PageWords + w.rng.intn(hw.PageWords))
			w.vals[wi][pg] = int64(w.rng.word() | 1)
		}
	}
}

func (w *pagingMix) batch() (int, error) {
	w.draw()
	var firstErr error
	err := w.h.runTasks(int64(w.rng.next()>>1), w.k.CPUs, func(cpu *hw.Processor) {
		if err := w.round(cpu.ID); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if err == nil {
		err = firstErr
	}
	return len(w.workers) * 2 * pagingPages, err
}

// round rewrites the worker's pages and reads them back in stride
// order, checking every value.
func (w *pagingMix) round(wi int) error {
	if err := w.writeAll(wi); err != nil {
		return err
	}
	h, k, fw := w.h, w.k, w.workers[wi]
	ln := 1 + wi
	for i := 0; i < pagingPages; i++ {
		pg := i * pagingStride % pagingPages
		off, want := int(w.offs[wi][pg]), hw.Word(w.vals[wi][pg])
		op := w.op
		w.op++
		c0 := k.Meter.Cycles()
		h.tr.begin(ln, spRead, op)
		got, err := h.read(k, fw, off)
		h.tr.end(ln)
		h.record(k.Meter.Cycles() - c0)
		if err != nil {
			return fmt.Errorf("cpu%d read page %d: %w", wi, pg, err)
		}
		if got != want {
			return fmt.Errorf("cpu%d page %d offset %d read back %#o, wrote %#o", wi, pg, off, got, want)
		}
	}
	return nil
}

// writeAll writes the worker's word in every page, in stride order.
func (w *pagingMix) writeAll(wi int) error {
	h, k, fw := w.h, w.k, w.workers[wi]
	ln := 1 + wi
	for i := 0; i < pagingPages; i++ {
		pg := i * pagingStride % pagingPages
		off, val := int(w.offs[wi][pg]), hw.Word(w.vals[wi][pg])
		op := w.op
		w.op++
		c0 := k.Meter.Cycles()
		h.tr.begin(ln, spWrite, op)
		err := h.write(k, fw, off, val)
		h.tr.end(ln)
		h.record(k.Meter.Cycles() - c0)
		if err != nil {
			return fmt.Errorf("cpu%d write page %d: %w", wi, pg, err)
		}
	}
	return nil
}

func (w *pagingMix) simBatches() int         { return w.sz.sim }
func (w *pagingMix) kernels() []*core.Kernel { return []*core.Kernel{w.k} }
func (w *pagingMix) nodes() []*core.NetNode  { return nil }
func (w *pagingMix) check() error            { return nil }
