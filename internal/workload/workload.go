// Package workload holds the scenario catalogue: every workload the
// root module's harnesses run, registered once as a Scenario. The
// trace determinism test, the goroutine storm test, kernelbench,
// kerneltrace and multicsim select from Catalogue or the size-taking
// constructors, so a new scenario reaches every harness by one
// registration.
//
// The storms are written with the multiprocessor engine below: one
// worker per processor, each with one attached process and a private
// file, every worker running the same body on its own processor
// through the executor. The real-goroutine executor gives a -race
// storm, the deterministic one a seeded, replayable schedule; the
// storm itself is written once.
//
// LoginStorm is the other kind of storm: many users' processes, not
// one per processor. It logs users in through the answering service
// and timeshares them with the process plane's own quantum loop,
// RunQuantumWith, under the same executors; its serial phases run on
// the first processor through the executor too. It lives here, above
// the kernel, so the kernel never imports the answering service.
package workload

import (
	"cmp"
	"fmt"
	"sync"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/uproc"
)

// A Worker is one processor's process and the segment it works on.
type Worker struct {
	CPU   *hw.Processor
	Proc  *uproc.Process
	Segno int
}

// Files shapes the private file NewWorkers gives each worker.
type Files struct {
	// Prefix names worker i's principal <Prefix><i>.x and its file
	// <Prefix><i> — or, with Quota, its directory <Prefix><i>, which
	// holds the file "f".
	Prefix string
	// Quota, when positive, puts each file in a quota directory of its
	// own with this limit, so the workers charge separate cells.
	Quota int
	// Pages, when positive, materialises that many pages of each file:
	// each is written and then re-zeroed, so it exists, holds a disk
	// record, reads zero and has its translation cached by its owner.
	Pages int
}

// NewWorkers gives each of the first n processors of k one attached
// process with a private file shaped by f. The set-up runs serially
// on the caller's goroutine.
func NewWorkers(k *core.Kernel, n int, f Files) (ws []*Worker, err error) {
	err = script(func(must func(error)) {
		for i := 0; i < n; i++ {
			cpu := k.CPUs[i]
			p, err := k.CreateProcess(fmt.Sprintf("%s%d.x", f.Prefix, i), aim.Bottom)
			must(err)
			k.Attach(cpu, p)
			name := fmt.Sprintf("%s%d", f.Prefix, i)
			path := []string{name}
			if f.Quota > 0 {
				id, err := k.CreateDir(cpu, p, nil, name, directory.Public(hw.Read|hw.Write), aim.Bottom)
				must(err)
				must(k.DesignateQuota(cpu, p, id, f.Quota))
				path = append(path, "f")
			}
			_, err = k.CreateFile(cpu, p, path[:len(path)-1], path[len(path)-1], nil, aim.Bottom)
			must(err)
			segno, err := k.OpenPath(cpu, p, path)
			must(err)
			for pg := 0; pg < f.Pages; pg++ {
				must(k.Write(cpu, p, segno, pg*hw.PageWords, 1))
				must(k.Write(cpu, p, segno, pg*hw.PageWords, 0))
			}
			ws = append(ws, &Worker{CPU: cpu, Proc: p, Segno: segno})
		}
	})
	return ws, err
}

// Run runs body once per worker, each on its worker's processor, under
// ex, in worker order. It returns the executor's error if there is
// one, else the first error a body returned, naming its processor.
// Workers must be on distinct processors.
func Run(ex uproc.Executor, ws []*Worker, body func(w *Worker) error) error {
	cpus := make([]*hw.Processor, len(ws))
	byCPU := make(map[*hw.Processor]*Worker, len(ws))
	for i, w := range ws {
		cpus[i] = w.CPU
		byCPU[w.CPU] = w
	}
	return onEach(ex, cpus, func(cpu *hw.Processor) error { return body(byCPU[cpu]) })
}

// onEach runs body once per processor of cpus under ex. It returns the
// executor's error if there is one, else the first error a body
// returned, naming its processor.
func onEach(ex uproc.Executor, cpus []*hw.Processor, body func(cpu *hw.Processor) error) error {
	var (
		mu    sync.Mutex
		first error
	)
	err := ex.Run(cpus, func(cpu *hw.Processor) {
		if err := body(cpu); err != nil {
			mu.Lock()
			defer mu.Unlock()
			first = cmp.Or(first, fmt.Errorf("cpu %d: %w", cpu.ID, err))
		}
	})
	if err != nil {
		return err
	}
	return first
}

// Oscillate has the worker write each of the first pages pages of its
// file, read the word back and re-zero it, rounds times over. Any
// interleaving that loses a write fails the read-back. A page that is
// zero again may take the zero-page reclaim on its next eviction, so
// the reclaim keeps racing the owner's cached translations while the
// other processors' faults do the evicting.
func Oscillate(k *core.Kernel, w *Worker, rounds, pages int) error {
	for r := 0; r < rounds; r++ {
		for pg := 0; pg < pages; pg++ {
			off := pg * hw.PageWords
			v := hw.Word(1000*(w.CPU.ID+1) + 10*r + pg + 1)
			if err := k.Write(w.CPU, w.Proc, w.Segno, off, v); err != nil {
				return fmt.Errorf("round %d page %d: write: %w", r, pg, err)
			}
			// Under the deterministic executor a schedule can switch
			// processors between the store and its read-back.
			schedsim.Yield(schedsim.PointYield, "post-write")
			got, err := k.Read(w.CPU, w.Proc, w.Segno, off)
			if err != nil {
				return fmt.Errorf("round %d page %d: read: %w", r, pg, err)
			}
			if got != v {
				return fmt.Errorf("round %d page %d reads %d after writing %d (write lost to zero reclaim?)", r, pg, got, v)
			}
			if err := k.Write(w.CPU, w.Proc, w.Segno, off, 0); err != nil {
				return fmt.Errorf("round %d page %d: re-zero: %w", r, pg, err)
			}
		}
	}
	return nil
}

// GrowReadTruncate is one round of the paging and quota workload: the
// worker grows its file page by page under quota, reads every page
// back and truncates the file away. round picks the word written in
// each page.
func GrowReadTruncate(k *core.Kernel, w *Worker, round, pages int) error {
	off := round % hw.PageWords
	for pg := 0; pg < pages; pg++ {
		if err := k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords+off, hw.Word(w.CPU.ID+1)); err != nil {
			return fmt.Errorf("round %d page %d: write: %w", round, pg, err)
		}
	}
	for pg := 0; pg < pages; pg++ {
		if _, err := k.Read(w.CPU, w.Proc, w.Segno, pg*hw.PageWords+off); err != nil {
			return fmt.Errorf("round %d page %d: read: %w", round, pg, err)
		}
	}
	return k.Truncate(w.CPU, w.Proc, w.Segno, 0)
}

// Scan reads the first word of each of the first pages pages of the
// worker's segment in order and checks that page pg holds base+pg.
func Scan(k *core.Kernel, w *Worker, pages int, base hw.Word) error {
	for pg := 0; pg < pages; pg++ {
		got, err := k.Read(w.CPU, w.Proc, w.Segno, pg*hw.PageWords)
		if err != nil {
			return fmt.Errorf("page %d: read: %w", pg, err)
		}
		if got != base+hw.Word(pg) {
			return fmt.Errorf("page %d reads %d, want %d", pg, got, base+hw.Word(pg))
		}
	}
	return nil
}
