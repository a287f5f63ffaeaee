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
	"strings"
	"testing"

	"multics/internal/trace"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// traceCoverage pins what the catalogue's scenarios reach together:
// per module, the event kinds with a nonzero count, then after the
// bar the span kinds that completed. A key lost means a scenario no
// longer drives a path the trace once covered; a key gained means the
// table is out of date.
var traceCoverage = map[string]string{
	"active-segment-manager":    "assoc-clear gate-cross | gate shootdown",
	"directory-manager":         "gate-cross | gate",
	"disk-record-manager":       "disk-queue disk-read disk-write | disk-read disk-write",
	"front-end-processor":       "advance net-credit net-drop net-frame |",
	"internode-channel":         "remote-seg |",
	"known-segment-manager":     "fault gate-cross | gate",
	"net-demux":                 "gate-cross net-frame | gate",
	"page-frame-manager":        "assoc-clear assoc-hit assoc-miss fault page-evict page-fetch prefetch-drop prefetch-hit prefetch-issue | fault-service shootdown",
	"quota-cell-manager":        "fault quota-check |",
	"user-process-manager":      "advance ipc process-swap | quantum",
	"virtual-processor-manager": "advance dispatch ipc | vp-dispatch",
}

// traceScenarios is what TestTraceDeterminism runs: the catalogue,
// with its oscillation storm on two processors and again on four, so
// the seeded schedule is shown to replay on more than one processor
// count, plus two scenarios only this test runs: a walk of a deep
// pathname, and the scheduler's quantum loop on its own, on one
// processor and on two.
func traceScenarios() []workload.Scenario {
	ss := workload.Catalogue()
	for i, s := range ss {
		if s.Name == "oscillation" {
			ss[i].Name = "smp2-sim-storm"
			smp4 := s
			smp4.Name = "smp4-sim-storm"
			// The processor count first, so the storm sizes its
			// memory from it.
			smp4.Config = func(c *Config) { c.Processors = 4; s.Configure(c) }
			ss = append(ss, smp4)
		}
	}
	walks := workload.Scenario{
		Name: "directory-tree-walks",
		Run: func(k *Kernel, _ uproc.Executor) error {
			p, err := k.CreateProcess("walk.x", Bottom)
			if err != nil {
				return err
			}
			cpu, path := k.CPUs[0], []string{"d0", "d1", "d2", "d3", "leaf"}
			k.Attach(cpu, p)
			for i, name := range path {
				if i < len(path)-1 {
					_, err = k.CreateDir(cpu, p, path[:i], name, Public(Read|Write), Bottom)
				} else {
					_, err = k.CreateFile(cpu, p, path[:i], name, nil, Bottom)
				}
				if err != nil {
					return err
				}
			}
			for i := 0; i < 20 && err == nil; i++ {
				_, err = k.WalkPath(cpu, p, path)
			}
			return err
		},
	}
	quanta := func(name string, cpus int) workload.Scenario {
		return workload.Scenario{
			Name:   name,
			Config: func(c *Config) { c.Processors = cpus },
			Run: func(k *Kernel, ex uproc.Executor) error {
				for i := 0; i < 4; i++ {
					if _, err := k.CreateProcess(fmt.Sprintf("u%d.x", i), Bottom); err != nil {
						return err
					}
				}
				_, err := k.Procs.RunQuantumWith(ex, k.CPUs, 15, nil)
				return err
			},
		}
	}
	return append(ss, walks, quanta("scheduler-quanta", 1), quanta("smp2-sim-quanta", 2))
}

// TestTraceDeterminism boots each of traceScenarios twice from
// identical configurations, under the seeded deterministic executor,
// and requires byte-identical event and span streams, associative
// memories and deeply equal snapshots. It then boots the scenario once
// more untraced and requires the same cycle meter, in total and per
// processor: tracing is free, so a nil recorder and a live one drive
// the same seeded schedule. Together the scenarios must reach exactly
// the modules and kinds of traceCoverage.
func TestTraceDeterminism(t *testing.T) {
	scenarios := traceScenarios()
	reached := make(map[string]bool) // "module event kind", "module span kind"
	ran := 0
	for _, s := range scenarios {
		t.Run(s.Name, func(t *testing.T) {
			boot := func(traceEvents int) *Kernel {
				cfg := DefaultConfig()
				cfg.RootQuota = 10000
				s.Configure(&cfg)
				cfg.TraceEvents = traceEvents
				k, err := Boot(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Drive(k, uproc.SimExecutor{Seed: 1977}); err != nil {
					t.Fatal(err)
				}
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
				t.Fatal("scenario emitted no events")
			}
			if spans1 == "" {
				t.Fatal("scenario completed no spans")
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
			for module, st := range snap1.Modules {
				for kind, n := range st.Ops {
					if n > 0 {
						reached[module+" event "+trace.Kind(kind).String()] = true
					}
				}
			}
			for key, h := range snap1.Spans {
				if h.Count > 0 {
					reached[key.Module+" span "+key.Kind.String()] = true
				}
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
			ran++
		})
	}
	if ran < len(scenarios) {
		return // a -run filter or a failure: the union is partial
	}
	pinned := make(map[string]bool)
	for module, kinds := range traceCoverage {
		events, spans, _ := strings.Cut(kinds, "|")
		for _, kind := range strings.Fields(events) {
			pinned[module+" event "+kind] = true
		}
		for _, kind := range strings.Fields(spans) {
			pinned[module+" span "+kind] = true
		}
	}
	for key := range pinned {
		if !reached[key] {
			t.Errorf("no scenario reaches %s any more", key)
		}
	}
	for key := range reached {
		if !pinned[key] {
			t.Errorf("the scenarios reach %s, which traceCoverage does not pin", key)
		}
	}
}
