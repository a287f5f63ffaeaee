package uproc_test

import (
	"fmt"
	"slices"
	"testing"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/uproc"
)

// quantaPerProcess boots a kernel of nCPU processors, creates procs
// processes, runs n quanta on each of the first workers processors
// under the sim executor at seed, and returns the quanta each process
// received in creation order, with the run's reported total.
func quantaPerProcess(t *testing.T, nCPU, workers, procs, n int, seed int64) ([]int, int) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Processors = nCPU
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[uint64]int, procs)
	for i := 0; i < procs; i++ {
		p, err := k.CreateProcess(fmt.Sprintf("u%d.x", i), aim.Bottom)
		if err != nil {
			t.Fatal(err)
		}
		index[p.ID()] = i
	}
	got := make([]int, procs)
	total, err := k.Procs.RunQuantumWith(uproc.SimExecutor{Seed: seed}, k.CPUs[:workers], n,
		func(_ *hw.Processor, p *uproc.Process) { got[index[p.ID()]]++ })
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sum := 0
	for _, q := range got {
		sum += q
	}
	if sum != total {
		t.Fatalf("seed %d: %d quanta reported, %d bodies run", seed, total, sum)
	}
	return got, total
}

// TestSimOneWorkerServesEveryProcess pins the starvation of per-
// processor run queues: on a two-processor kernel with one worker
// running, processes homed on the queue no worker served never ran
// (pids 1 and 3 got fifty quanta each, pids 2 and 4 none). One ready
// queue shares the hundred quanta evenly.
func TestSimOneWorkerServesEveryProcess(t *testing.T) {
	got, _ := quantaPerProcess(t, 2, 1, 4, 100, 1977)
	for i, q := range got {
		if q != 25 {
			t.Errorf("quanta per process = %v, want 25 each (process %d got %d)", got, i+1, q)
			break
		}
	}
}

// TestSweepQuantumFairness sweeps seeds over kernels of 1, 2 and 4
// processors, every worker count from one to the processor count,
// several process counts and run lengths. The ready queue is FIFO, so
// the first min(quanta, processes) processes created are each
// dispatched: every process runs whenever the run gives at least one
// quantum per process. With one worker the quanta go round robin, so
// no two processes' counts differ by more than one.
func TestSweepQuantumFairness(t *testing.T) {
	seeds, _ := schedsim.EnvBudget(4, 0)
	for _, nCPU := range []int{1, 2, 4} {
		for workers := 1; workers <= nCPU; workers++ {
			for _, procs := range []int{1, 3, 5, 8} {
				for _, n := range []int{1, procs, 2*procs + 1} {
					for seed := int64(1977); seed < 1977+int64(seeds); seed++ {
						got, total := quantaPerProcess(t, nCPU, workers, procs, n, seed)
						for i := 0; i < min(total, procs); i++ {
							if got[i] == 0 {
								t.Errorf("%d cpus, %d workers, %d processes, %d quanta each, seed %d: process %d never ran in %d quanta: %v",
									nCPU, workers, procs, n, seed, i+1, total, got)
								break
							}
						}
						if workers == 1 && slices.Max(got)-slices.Min(got) > 1 {
							t.Errorf("%d cpus, one worker, %d processes, %d quanta, seed %d: quanta %v differ by more than one",
								nCPU, procs, n, seed, got)
						}
					}
				}
			}
		}
	}
}
