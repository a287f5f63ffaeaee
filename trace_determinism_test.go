// Determinism of the meters: two kernels booted with the same
// configuration and driven through the same workload must produce
// byte-identical event streams and identical snapshots. This is the
// property that makes the trace usable as evidence — a cycle
// attribution that varied from run to run could not support the
// paper-style performance arguments, and a diff of two traces could
// not localize a behavior change.
package multics

import (
	"fmt"
	"reflect"
	"testing"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/directory"
	"multics/internal/fnp"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/trace"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// traceWorkloads drive every instrumented subsystem. The single-CPU
// workloads run single-goroutine so the event order is fully
// determined; the smp workloads run several simulated processors under
// the deterministic executor, whose seeded schedule makes the
// multi-CPU event order just as reproducible.
var traceWorkloads = []struct {
	name string
	cfg  func(*Config)
	run  func(t *testing.T, k *Kernel)
}{
	{
		name: "fault-storm",
		cfg:  func(c *Config) { c.MemFrames = 24; c.WiredFrames = 8 },
		run: func(t *testing.T, k *Kernel) {
			cpu, p := traceProcess(t, k)
			segno := traceFile(t, k, p, nil, "hot")
			for i := 0; i < 24; i++ {
				if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				if _, err := k.Read(cpu, p, segno, (i%24)*hw.PageWords); err != nil {
					t.Fatal(err)
				}
			}
		},
	},
	{
		// A sequential scan of a freshly-deactivated file: the disk
		// pipeline's queue/issue/hit events, the elevator's seek-cost
		// attribution, and the second-chance cache's bookkeeping must
		// replay byte-identically — with read-ahead actually firing,
		// or the workload exercises nothing.
		name: "sequential-readahead",
		cfg:  func(c *Config) { c.MemFrames = 64; c.WiredFrames = 8 },
		run: func(t *testing.T, k *Kernel) {
			cpu, p := traceProcess(t, k)
			segno := traceFile(t, k, p, nil, "scan")
			for i := 0; i < 24; i++ {
				if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			e, err := p.KST().Entry(segno)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Segs.Deactivate(e.UID); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 24; i++ {
				got, err := k.Read(cpu, p, segno, i*hw.PageWords)
				if err != nil {
					t.Fatal(err)
				}
				if got != hw.Word(i+1) {
					t.Fatalf("page %d reads %d, want %d", i, got, i+1)
				}
			}
			if st := k.Frames.Stats(); st.PrefetchHits == 0 {
				t.Fatal("sequential scan produced no read-ahead hits")
			}
		},
	},
	{
		name: "directory-tree-walks",
		run: func(t *testing.T, k *Kernel) {
			cpu, p := traceProcess(t, k)
			var path []string
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("d%d", i)
				if _, err := k.CreateDir(cpu, p, path, name, directory.Public(hw.Read|hw.Write), Bottom); err != nil {
					t.Fatal(err)
				}
				path = append(path, name)
			}
			traceFile(t, k, p, path, "leaf")
			for i := 0; i < 20; i++ {
				if _, err := k.WalkPath(cpu, p, append(append([]string{}, path...), "leaf")); err != nil {
					t.Fatal(err)
				}
			}
		},
	},
	{
		name: "scheduler-quanta",
		run: func(t *testing.T, k *Kernel) {
			for i := 0; i < 4; i++ {
				if _, err := k.CreateProcess(fmt.Sprintf("u%d.x", i), Bottom); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := k.Procs.RunQuantum(30, func(*uproc.Process) {}); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		// Re-references served by the associative memory, then enough
		// growth to force evictions and their shootdown clears: the
		// hit/miss/clear events and the cache contents themselves must
		// replay identically.
		name: "assoc-re-reference",
		cfg:  func(c *Config) { c.MemFrames = 24; c.WiredFrames = 8 },
		run: func(t *testing.T, k *Kernel) {
			cpu, p := traceProcess(t, k)
			segno := traceFile(t, k, p, nil, "warm")
			for i := 0; i < 8; i++ {
				if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < 40; r++ {
				for i := 0; i < 8; i++ {
					if _, err := k.Read(cpu, p, segno, i*hw.PageWords+r%hw.PageWords); err != nil {
						t.Fatal(err)
					}
				}
			}
			cold := traceFile(t, k, p, nil, "cold")
			for i := 0; i < 24; i++ {
				if err := k.Write(cpu, p, cold, i*hw.PageWords, hw.Word(i+1)); err != nil {
					t.Fatal(err)
				}
			}
		},
	},
	{
		name: "quota-growth-truncate",
		run: func(t *testing.T, k *Kernel) {
			cpu, p := traceProcess(t, k)
			segno := traceFile(t, k, p, nil, "grow")
			for i := 0; i < 30; i++ {
				if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.Truncate(cpu, p, segno, 4); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+100)); err != nil {
					t.Fatal(err)
				}
			}
		},
	},
	{
		// Two booted kernels joined by the inter-node channel. The
		// traced kernel's side of a remote segment read and copy — the
		// demux crossings, the internode connection table's frame and
		// credit events, and the local write faults of the copy — must
		// replay byte-identically, as must a burst of terminal frames
		// through the front-end connection plane.
		name: "remote-segment",
		run: func(t *testing.T, k *Kernel) {
			node, err := k.AttachFNP(16, 4)
			if err != nil {
				t.Fatal(err)
			}
			// The second node is untraced scaffolding: it publishes a
			// file the traced node pulls across the link.
			rcfg := DefaultConfig()
			rcfg.RootQuota = 10000
			rk, err := Boot(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := rk.AttachFNP(16, 4)
			if err != nil {
				t.Fatal(err)
			}
			link, err := Connect(node, remote)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := rk.CreateProcess("pub.x", Bottom)
			if err != nil {
				t.Fatal(err)
			}
			rcpu := rk.CPUs[0]
			rk.Attach(rcpu, rp)
			if _, err := rk.CreateFile(rcpu, rp, nil, "published", Public(Read|Write), Bottom); err != nil {
				t.Fatal(err)
			}
			rseg, err := rk.OpenPath(rcpu, rp, []string{"published"})
			if err != nil {
				t.Fatal(err)
			}
			const n = 32
			for i := 0; i < n; i++ {
				if err := rk.Write(rcpu, rp, rseg, i, hw.Word(0o400*i+3)); err != nil {
					t.Fatal(err)
				}
			}
			got, err := link.RemoteRead([]string{"published"}, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != hw.Word(0o400*i+3) {
					t.Fatalf("remote read word %d = %o, want %o", i, got[i], 0o400*i+3)
				}
			}
			cpu, p := traceProcess(t, k)
			segno := traceFile(t, k, p, nil, "mirror")
			moved, err := link.RemoteCopy(cpu, p, []string{"published"}, 0, n, segno, 0)
			if err != nil {
				t.Fatal(err)
			}
			if moved != n {
				t.Fatalf("copied %d words, want %d", moved, n)
			}
			for i := 0; i < n; i++ {
				w, err := k.Read(cpu, p, segno, i)
				if err != nil || w != hw.Word(0o400*i+3) {
					t.Fatalf("copied word %d = %o (%v), want %o", i, w, err, 0o400*i+3)
				}
			}
			// A burst of terminal frames through the traced node's
			// front-end plane: frame, delivery and credit events.
			for i := 0; i < 6; i++ {
				f := netmux.Frame{Channel: i, Payload: []hw.Word{hw.Word(i + 1), 0o777}}
				if err := node.Mux.Deliver(nil, "front-end", f); err != nil {
					t.Fatal(err)
				}
			}
			seen := 0
			for sh := 0; sh < node.Terminals.Shards(); sh++ {
				node.Terminals.Drain(sh, func(fnp.Delivery) { seen++ })
			}
			if seen != 6 {
				t.Fatalf("drained %d terminal frames, want 6", seen)
			}
		},
	},
	{
		// Two simulated processors running the paging storm under the
		// deterministic executor: cross-CPU faults, evictions and
		// shootdowns must produce byte-identical streams run over run.
		name: "smp2-sim-storm",
		cfg:  func(c *Config) { c.Processors = 2; c.MemFrames = 24; c.WiredFrames = 8 },
		run:  simOscillation,
	},
	{
		name: "smp4-sim-storm",
		cfg:  func(c *Config) { c.Processors = 4; c.MemFrames = 28; c.WiredFrames = 8 },
		run:  simOscillation,
	},
	{
		// A miniature login storm through the answering service on
		// two processors under the deterministic executor: the
		// sharded run queues, block/wake churn over the real-memory
		// queue, and the logout flood must replay byte-identically.
		name: "login-storm",
		cfg:  func(c *Config) { c.Processors = 2; c.RootQuota = 10000 },
		run: func(t *testing.T, k *Kernel) {
			svc := answering.New(answering.Split, k.Meter, func(principal string, label aim.Label) (any, error) {
				return k.CreateProcess(principal, label)
			})
			_, err := workload.LoginStorm{
				Users:          12,
				Rounds:         2,
				QuantaPerRound: 16,
				BlockEvery:     3,
			}.Run(k, uproc.SimExecutor{Seed: 1977}, svc)
			if err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		// The scheduler's quantum loop on two processors under the
		// pluggable deterministic executor.
		name: "smp2-sim-quanta",
		cfg:  func(c *Config) { c.Processors = 2 },
		run: func(t *testing.T, k *Kernel) {
			for i := 0; i < 4; i++ {
				if _, err := k.CreateProcess(fmt.Sprintf("u%d.x", i), Bottom); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := k.Procs.RunQuantumWith(uproc.SimExecutor{Seed: 1977}, k.CPUs, 15, nil); err != nil {
				t.Fatal(err)
			}
		},
	},
}

// simOscillation drives one oscillating writer per processor under
// the seeded deterministic executor.
func simOscillation(t *testing.T, k *Kernel) {
	t.Helper()
	ws, err := workload.NewWorkers(k, len(k.CPUs), workload.Files{Prefix: "det"})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Run(uproc.SimExecutor{Seed: 1977}, ws, func(w *workload.Worker) error {
		return workload.Oscillate(k, w, 3, 6)
	}); err != nil {
		t.Fatal(err)
	}
}

func traceProcess(t *testing.T, k *Kernel) (*hw.Processor, *uproc.Process) {
	t.Helper()
	p, err := k.CreateProcess("det.x", Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	return cpu, p
}

func traceFile(t *testing.T, k *Kernel, p *uproc.Process, dir []string, name string) int {
	t.Helper()
	cpu := k.CPUs[0]
	if _, err := k.CreateFile(cpu, p, dir, name, nil, Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, append(append([]string{}, dir...), name))
	if err != nil {
		t.Fatal(err)
	}
	return segno
}

// TestTraceDeterminism boots each workload twice from identical
// configurations and requires byte-identical event streams and deeply
// equal snapshots. It then boots the workload once more untraced and
// requires the same cycle meter, in total and per processor: tracing
// is free, so a nil recorder and a live one drive the same seeded
// schedule.
func TestTraceDeterminism(t *testing.T) {
	for _, w := range traceWorkloads {
		t.Run(w.name, func(t *testing.T) {
			boot := func(traceEvents int) *Kernel {
				cfg := DefaultConfig()
				cfg.RootQuota = 10000
				cfg.TraceEvents = traceEvents
				if w.cfg != nil {
					w.cfg(&cfg)
				}
				k, err := Boot(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w.run(t, k)
				return k
			}
			runOnce := func() (*Kernel, string, string, string, trace.Snapshot) {
				k := boot(1 << 14)
				if unknown := k.Trace.Unknown(); len(unknown) > 0 {
					t.Errorf("events from modules outside the dependency graph: %v", unknown)
				}
				if m := k.Trace.SpanMismatches(); m != 0 {
					t.Errorf("%d span ends without a matching begin: instrumentation bug", m)
				}
				// The associative-memory contents are part of the
				// determinism surface: identical runs must leave
				// byte-identical cache state, not just event streams.
				return k, trace.FormatEvents(k.Trace.Events()), trace.FormatSpans(k.Trace.Spans()), k.AssocFingerprint(), k.Trace.Snapshot()
			}
			traced, events1, spans1, assoc1, snap1 := runOnce()
			_, events2, spans2, assoc2, snap2 := runOnce()
			if events1 == "" {
				t.Fatal("workload emitted no events")
			}
			if spans1 == "" {
				t.Fatal("workload completed no spans")
			}
			if events1 != events2 {
				t.Errorf("event streams differ between identical runs:\nrun1:\n%srun2:\n%s", events1, events2)
			}
			if spans1 != spans2 {
				t.Errorf("span streams differ between identical runs:\nrun1:\n%srun2:\n%s", spans1, spans2)
			}
			if assoc1 != assoc2 {
				t.Errorf("associative memories differ between identical runs:\nrun1:\n%srun2:\n%s", assoc1, assoc2)
			}
			if !reflect.DeepEqual(snap1, snap2) {
				t.Errorf("snapshots differ between identical runs:\nrun1:\n%srun2:\n%s", snap1.PromText(), snap2.PromText())
			}

			untraced := boot(0)
			if got, want := untraced.Meter.Cycles(), traced.Meter.Cycles(); got != want {
				t.Errorf("untraced run spent %d cycles, traced %d", got, want)
			}
			for _, cpu := range traced.CPUs {
				if got, want := untraced.Meter.CPUCycles(cpu.ID), traced.Meter.CPUCycles(cpu.ID); got != want {
					t.Errorf("processor %d: untraced run spent %d cycles, traced %d", cpu.ID, got, want)
				}
			}
		})
	}
}
