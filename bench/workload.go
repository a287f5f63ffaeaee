package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
	"multics/internal/uproc"
)

// A workload is one seeded scenario the benchmark drives against the
// real kernel. Every workload is a closed loop: one driver calls the
// kernel and waits for each call to return, and multi-processor phases
// run under the seeded sim executor, so a seed fixes every simulated
// figure. README.md says what each exercises and why it was chosen.
type workload struct {
	name string
	// setup boots, populates and warms up an instance; tiny selects
	// the sizes the tests use.
	setup func(h *harness, seed int64, tiny bool) (instance, error)
}

var workloads = []*workload{
	{"login_churn", setupLoginChurn},
	{"paging_mix", setupPagingMix},
	{"seq_scan", setupSeqScan},
	{"terminal_mix", setupTerminalMix},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// An instance is a booted, populated and warmed-up workload.
type instance interface {
	// batch runs the next batch of ops and reports how many completed.
	// A batch is the unit of determinism: the simulated figures cover
	// a fixed number of leading batches.
	batch() (int, error)
	// simBatches is how many leading measured batches the simulated
	// figures cover.
	simBatches() int
	// kernels lists every kernel the workload booted.
	kernels() []*core.Kernel
	// nodes lists the network attachments, if any.
	nodes() []*core.NetNode
	// check verifies the workload's own end-of-run invariants.
	check() error
}

// A harness is what a workload instance shares with the measurement
// loop: the tracer, the op-latency record and the failure counters.
type harness struct {
	// tr is nil unless the run is traced; traceKernel boots the
	// workload's kernels with their per-module meters on.
	tr          *tracer
	traceKernel bool
	// recording is set while the simulated-figure batches run; lat then
	// counts each op's latency on the workload's global clock.
	recording bool
	lat       latencies

	// failed counts retried or refused attempts; loginFailures and
	// wakeRetries are the answering and uproc shares the layer table
	// reports.
	failed        int64
	loginFailures int64
	wakeRetries   int64

	// The sim executor's own cost: decisions taken, the largest
	// decision log any one executor retained, and host time inside
	// executor runs.
	simSteps       int64
	simMaxRetained int64
	simHostNs      int64
}

func (h *harness) record(cycles int64) {
	if h.recording {
		h.lat.add(cycles)
	}
}

// A schedule is the seeded random strategy of one executor run. It
// counts its decisions, because uproc.SimExecutor builds its executor
// internally and the strategy is where the benchmark sees them, and it
// tells the tracer which processor's task takes the token at each.
type schedule struct {
	inner schedsim.Strategy
	tr    *tracer
	n     int64
}

func (h *harness) newSchedule(seed int64) *schedule {
	return &schedule{inner: schedsim.Random(seed), tr: h.tr}
}

func (s *schedule) Choose(d schedsim.Decision) int {
	s.n++
	c := s.inner.Choose(d)
	if s.tr != nil && c >= 0 && c < len(d.Runnable) {
		s.tr.switchTo(taskLane(d.Runnable[c]))
	}
	return c
}

// taskLane maps an executor task, named "cpu<id>" by both this package
// and uproc, to its tracer lane.
func taskLane(name string) int {
	id, err := strconv.Atoi(strings.TrimPrefix(name, "cpu"))
	if err != nil || id < 0 || id+1 >= maxLanes {
		return 0
	}
	return 1 + id
}

// account charges one finished executor run to the harness: its host
// time, its decisions and the decision log it retained.
func (h *harness) account(s *schedule, t0 time.Time, retained int64) {
	h.tr.switchTo(0)
	h.simHostNs += int64(time.Since(t0))
	h.simSteps += s.n
	h.simMaxRetained = max(h.simMaxRetained, retained)
}

// runTasks runs one task per processor under a seeded sim executor. It
// is the only place the benchmark binds goroutines to processors, so
// each task's cycles land on its processor's account.
func (h *harness) runTasks(seed int64, cpus []*hw.Processor, body func(cpu *hw.Processor)) error {
	s := h.newSchedule(seed)
	ex := schedsim.New(schedsim.Config{Name: "bench", Seed: seed, Strategy: s})
	for _, cpu := range cpus {
		ex.Go(fmt.Sprintf("cpu%d", cpu.ID), func() {
			defer trace.BindCPU(cpu.ID)()
			body(cpu)
		})
	}
	t0 := time.Now()
	err := ex.Run()
	h.account(s, t0, int64(len(ex.Decisions())))
	return err
}

// maxRetries bounds how often read and write repeat a reference the
// kernel reports as a fault loop, as a thrashing user program would.
// Every repeat counts as a failed attempt.
const maxRetries = 25

// read is a user-mode load by the worker, retried on a fault loop.
func (h *harness) read(k *core.Kernel, fw *fileWorker, off int) (hw.Word, error) {
	for tries := 0; ; tries++ {
		v, err := k.Read(fw.cpu, fw.p, fw.segno, off)
		if errors.Is(err, core.ErrFaultLoop) && tries < maxRetries {
			h.failed++
			continue
		}
		return v, err
	}
}

// write is a user-mode store by the worker, retried on a fault loop.
func (h *harness) write(k *core.Kernel, fw *fileWorker, off int, v hw.Word) error {
	for tries := 0; ; tries++ {
		err := k.Write(fw.cpu, fw.p, fw.segno, off, v)
		if errors.Is(err, core.ErrFaultLoop) && tries < maxRetries {
			h.failed++
			continue
		}
		return err
	}
}

// boot starts a 2-processor kernel shaped by mutate; kernel tracing is
// on when the harness asks for the per-module meters.
func (h *harness) boot(seed int64, mutate func(*core.Config)) (*core.Kernel, error) {
	cfg := core.DefaultConfig()
	cfg.Processors = 2
	cfg.Seed = uint64(seed)
	cfg.RootQuota = 100000
	cfg.Packs = []core.PackSpec{{ID: "dska", Records: 8192}, {ID: "dskb", Records: 8192}}
	if mutate != nil {
		mutate(&cfg)
	}
	if h.traceKernel {
		cfg.TraceEvents = 1 << 12
	}
	return core.Boot(cfg)
}

// A fileWorker is one processor's process and its private file, under
// its own quota directory.
type fileWorker struct {
	cpu   *hw.Processor
	p     *uproc.Process
	segno int
	uid   uint64
}

// newFileWorkers creates one worker per processor of k.
func newFileWorkers(k *core.Kernel, prefix string) ([]*fileWorker, error) {
	var ws []*fileWorker
	for i, cpu := range k.CPUs {
		p, err := k.CreateProcess(fmt.Sprintf("%s%d.x", prefix, i), aim.Bottom)
		if err != nil {
			return nil, err
		}
		k.Attach(cpu, p)
		dir := fmt.Sprintf("%s%d", prefix, i)
		id, err := k.CreateDir(cpu, p, nil, dir, directory.Public(hw.Read|hw.Write), aim.Bottom)
		if err != nil {
			return nil, err
		}
		if err := k.DesignateQuota(cpu, p, id, 4096); err != nil {
			return nil, err
		}
		if _, err := k.CreateFile(cpu, p, []string{dir}, "f", nil, aim.Bottom); err != nil {
			return nil, err
		}
		segno, err := k.OpenPath(cpu, p, []string{dir, "f"})
		if err != nil {
			return nil, err
		}
		e, err := p.KST().Entry(segno)
		if err != nil {
			return nil, err
		}
		ws = append(ws, &fileWorker{cpu: cpu, p: p, segno: segno, uid: e.UID})
	}
	return ws, nil
}

// A rng is splitmix64: tiny, and stable across Go releases, so a seed
// names the same inputs everywhere.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// word draws a machine word.
func (r *rng) word() hw.Word { return hw.Word(r.next()).Masked() }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
