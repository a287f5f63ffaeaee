package main

import (
	"fmt"

	"multics/internal/core"
	"multics/internal/hw"
)

// seq_scan shape: one worker per CPU with a scanPages file, the files
// spread over two packs. Memory holds both files plus read-ahead
// slack, so nothing is evicted. A batch is one pass: the driver
// deactivates both files, then both CPUs scan their own file from the
// first page to the last under the sim executor, checking every value.
// Every pass therefore starts cold, by design.
const scanSlack = 64

type scanSize struct{ pages, warmup, sim int }

var (
	scanFull = scanSize{pages: 64, warmup: 2, sim: 64}
	scanTiny = scanSize{pages: 8, warmup: 1, sim: 2}
)

type seqScan struct {
	h       *harness
	sz      scanSize
	k       *core.Kernel
	rng     *rng
	workers []*fileWorker
	// offs[w][pg] and vals[w][pg] are the word each worker wrote in
	// each page of its file at set-up, and its value.
	offs, vals [][]int64
	op         int64
}

func setupSeqScan(h *harness, seed int64, tiny bool) (instance, error) {
	sz := scanFull
	if tiny {
		sz = scanTiny
	}
	k, err := h.boot(seed, func(c *core.Config) {
		c.SpreadPacks = true
		c.WiredFrames = 8
		c.MemFrames = c.WiredFrames + c.Processors*sz.pages + scanSlack
	})
	if err != nil {
		return nil, err
	}
	ws, err := newFileWorkers(k, "sq")
	if err != nil {
		return nil, err
	}
	w := &seqScan{h: h, sz: sz, k: k, rng: newRNG(seed, 3), workers: ws}
	for _, fw := range ws {
		offs, vals := make([]int64, sz.pages), make([]int64, sz.pages)
		for pg := range offs {
			offs[pg] = int64(pg*hw.PageWords + w.rng.intn(hw.PageWords))
			// Nonzero, so every page lives on disk and each scan
			// fetches it.
			vals[pg] = int64(w.rng.word() | 1)
			if err := h.write(k, fw, int(offs[pg]), hw.Word(vals[pg])); err != nil {
				return nil, err
			}
		}
		w.offs, w.vals = append(w.offs, offs), append(w.vals, vals)
	}
	for b := 0; b < sz.warmup; b++ {
		if _, err := w.batch(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *seqScan) batch() (int, error) {
	h := w.h
	for _, fw := range w.workers {
		h.tr.begin(0, spDeactivate, w.op)
		err := w.k.Segs.Deactivate(fw.uid)
		h.tr.end(0)
		if err != nil {
			return 0, fmt.Errorf("deactivate: %w", err)
		}
	}
	var firstErr error
	err := h.runTasks(int64(w.rng.next()>>1), w.k.CPUs, func(cpu *hw.Processor) {
		if err := w.scan(cpu.ID); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if err != nil {
		return 0, err
	}
	return len(w.workers) * w.sz.pages, firstErr
}

// scan reads every page of the worker's file in order, checking each
// value against what set-up wrote.
func (w *seqScan) scan(wi int) error {
	h, k, fw := w.h, w.k, w.workers[wi]
	ln := 1 + wi
	for pg := 0; pg < w.sz.pages; pg++ {
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

func (w *seqScan) simBatches() int         { return w.sz.sim }
func (w *seqScan) kernels() []*core.Kernel { return []*core.Kernel{w.k} }
func (w *seqScan) nodes() []*core.NetNode  { return nil }
func (w *seqScan) check() error            { return nil }
