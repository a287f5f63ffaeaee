package trace

import (
	"fmt"
	"sync"
	"testing"

	"multics/internal/schedsim"
)

// TestConcurrentEmitGapFreeSeq drives the recorder from many
// goroutines at once — the multiprocessor kernel's emission pattern —
// and requires the ring's sequence numbering to stay gap-free: every
// event gets a distinct consecutive sequence number and none is lost.
func TestConcurrentEmitGapFreeSeq(t *testing.T) {
	const emitters, perEmitter = 8, 1000
	r := NewRecorder(emitters*perEmitter, nil)
	r.Register("m")
	var wg sync.WaitGroup
	for i := 0; i < emitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perEmitter; j++ {
				r.Emit(Event{Kind: EvIPC, Module: "m", Arg0: int64(i), Arg1: int64(j)})
			}
		}(i)
	}
	wg.Wait()

	ev := r.Events()
	if len(ev) != emitters*perEmitter {
		t.Fatalf("retained %d events, want %d", len(ev), emitters*perEmitter)
	}
	for i, e := range ev {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: numbering has a gap or a duplicate", i, e.Seq)
		}
	}
	s := r.Snapshot()
	if s.Events != emitters*perEmitter || s.Dropped != 0 {
		t.Fatalf("snapshot: %d events, %d dropped; want %d, 0", s.Events, s.Dropped, emitters*perEmitter)
	}
	if s.Modules["m"].Ops[EvIPC] != emitters*perEmitter {
		t.Fatalf("per-module count %d, want %d", s.Modules["m"].Ops[EvIPC], emitters*perEmitter)
	}
}

// TestConcurrentRingWrap overruns a small ring from many goroutines
// at once and requires exact accounting: Dropped reports precisely the
// overrun, Events returns exactly the newest capacity events in
// sequence order, and the unregistered emitter is flagged by Unknown.
func TestConcurrentRingWrap(t *testing.T) {
	const capacity, emitters, perEmitter = 64, 8, 500
	const total = emitters * perEmitter
	r := NewRecorder(capacity, nil)
	r.Register("m")
	var wg sync.WaitGroup
	for i := 0; i < emitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mod := "m"
			if i == 0 {
				mod = "drifted" // never registered
			}
			for j := 0; j < perEmitter; j++ {
				r.Emit(Event{Kind: EvIPC, Module: mod, Arg0: int64(i)})
			}
		}(i)
	}
	wg.Wait()

	if d := r.Snapshot().Dropped; d != total-capacity {
		t.Errorf("Dropped = %d, want %d", d, total-capacity)
	}
	ev := r.Events()
	if len(ev) != capacity {
		t.Fatalf("retained %d events, want %d", len(ev), capacity)
	}
	for i, e := range ev {
		if want := uint64(total - capacity + i + 1); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d: ring did not keep the newest in order", i, e.Seq, want)
		}
	}
	if got := r.Unknown(); len(got) != 1 || got[0] != "drifted" {
		t.Errorf("Unknown = %v, want [drifted]", got)
	}
	s := r.Snapshot()
	if s.Events != total {
		t.Errorf("snapshot events = %d, want %d", s.Events, total)
	}
	if n := s.Modules["m"].Ops[EvIPC] + s.Modules["drifted"].Ops[EvIPC]; n != total {
		t.Errorf("per-module counts sum to %d, want %d: overwritten events must stay counted", n, total)
	}
}

// runBound runs n schedsim tasks under strategy, task i bound to
// processor i, and fails the test on an executor failure.
func runBound(t *testing.T, n int, strategy schedsim.Strategy, body func(i int)) {
	t.Helper()
	ex := schedsim.New(schedsim.Config{Name: "trace", Strategy: strategy})
	for i := 0; i < n; i++ {
		ex.Go(fmt.Sprintf("cpu%d", i), func() {
			defer BindCPU(i)()
			body(i)
		})
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSpans closes spans from several bound tasks,
// switching task at a seeded choice after every begin, and requires
// the aggregate accounting to come out exact.
func TestConcurrentSpans(t *testing.T) {
	const workers, perWorker = 6, 300
	r := NewRecorder(workers*perWorker, nil)
	r.Register("m")
	runBound(t, workers, schedsim.Random(1), func(i int) {
		r.SetRunningProcess(i, uint64(i+1))
		for j := 0; j < perWorker; j++ {
			r.BeginSpan(SpanVPDispatch, "m", int64(j))
			schedsim.Yield(schedsim.PointYield, "span open")
			r.EndSpan(SpanVPDispatch)
		}
	})

	if m := r.SpanMismatches(); m != 0 {
		t.Errorf("SpanMismatches = %d, want 0", m)
	}
	if d := r.SpansDropped(); d != 0 {
		t.Errorf("SpansDropped = %d, want 0", d)
	}
	s := r.Snapshot()
	h := s.Spans[SpanKey{Module: "m", Kind: SpanVPDispatch}]
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	var spans int64
	for pid, pa := range s.Procs {
		if pid < 1 || pid > workers {
			t.Errorf("unexpected process %d in accounting", pid)
		}
		spans += pa.Spans
	}
	if spans != workers*perWorker {
		t.Errorf("process accounting covers %d spans, want %d", spans, workers*perWorker)
	}
}

// TestBindCPUAttribution checks that events emitted by a task bound
// to a processor carry that processor's id, that a new binding
// replaces the old one, that emission off a task or after unbinding
// stays unattributed, and that an emitter's own stamp wins.
func TestBindCPUAttribution(t *testing.T) {
	r := NewRecorder(64, nil)
	r.Register("m")

	r.Emit(Event{Kind: EvIPC, Module: "m"}) // off a task

	runBound(t, 3, schedsim.RoundRobin(), func(cpu int) {
		schedsim.Yield(schedsim.PointYield, "before emit")
		r.Emit(Event{Kind: EvDispatch, Module: "m", Arg0: int64(cpu)})
		if cpu != 0 {
			return
		}
		unbind := BindCPU(5)
		r.Emit(Event{Kind: EvFault, Module: "m", CPU: 2}) // hardware stamped CPU 1 itself
		r.Emit(Event{Kind: EvDispatch, Module: "m", Arg0: 5})
		unbind()
		r.Emit(Event{Kind: EvIPC, Module: "m"}) // bindings do not nest: unbound now
	})
	ex := schedsim.New(schedsim.Config{Name: "unbound"})
	ex.Go("task", func() { r.Emit(Event{Kind: EvIPC, Module: "m"}) }) // on a task, never bound
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}

	var dispatches int
	for _, e := range r.Events() {
		switch e.Kind {
		case EvIPC:
			if e.CPU != 0 {
				t.Errorf("unbound event attributed to cpu %d", e.CPU-1)
			}
		case EvDispatch:
			dispatches++
			if e.CPU != int32(e.Arg0)+1 {
				t.Errorf("bound event for cpu %d carries cpu stamp %d", e.Arg0, e.CPU)
			}
		case EvFault:
			if e.CPU != 2 {
				t.Errorf("pre-stamped event overwritten: cpu stamp %d", e.CPU)
			}
		}
	}
	if dispatches != 4 {
		t.Errorf("%d bound events recorded, want 4", dispatches)
	}
	if BoundCPU() != 0 {
		t.Errorf("off-task BoundCPU = %d, want 0", BoundCPU())
	}
}

// TestBindCPUOffTaskPanics: off a schedsim task there is no
// per-processor state to hold a binding, so BindCPU refuses.
func TestBindCPUOffTaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BindCPU off a task did not panic")
		}
		if BoundCPU() != 0 {
			t.Errorf("BoundCPU = %d after the refused BindCPU, want 0", BoundCPU())
		}
	}()
	BindCPU(1)
}

// TestBindCPUAllocatesNothing: binding and unbinding a task, as every
// executor task does once per run, allocates nothing.
func TestBindCPUAllocatesNothing(t *testing.T) {
	runBound(t, 1, schedsim.RoundRobin(), func(i int) {
		if a := testing.AllocsPerRun(100, func() { BindCPU(i)() }); a != 0 {
			t.Errorf("BindCPU(%d)() allocates %v objects, want 0", i, a)
		}
	})
}
