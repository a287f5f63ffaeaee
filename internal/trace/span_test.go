package trace

import (
	"strings"
	"testing"

	"multics/internal/schedsim"
)

// offTask is the processor argument that names the slot of spans
// begun off any task, where these tests run.
const offTask = -1

// TestSpanNestingAndLinkage drives one fault-service span with a
// nested disk read and checks the whole record: completion order
// (children complete first), parent linkage, child-time attribution,
// and the cycle stamps from the simulated clock.
func TestSpanNestingAndLinkage(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(16, clk)
	r.Register("page-frame-manager", "disk-record-manager")

	clk.c = 100
	r.BeginSpan(SpanFaultService, "page-frame-manager", 7)
	clk.c = 150
	r.BeginSpan(SpanDiskRead, "disk-record-manager", 42)
	clk.c = 3150
	r.EndSpan(SpanDiskRead)
	clk.c = 3400
	r.EndSpan(SpanFaultService)

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	child, parent := spans[0], spans[1]
	if child.Kind != SpanDiskRead || parent.Kind != SpanFaultService {
		t.Fatalf("completion order wrong: %v then %v", child.Kind, parent.Kind)
	}
	if child.Parent != parent.ID {
		t.Errorf("child.Parent = %d, want parent ID %d", child.Parent, parent.ID)
	}
	if parent.ID >= child.ID {
		t.Errorf("parent ID %d not smaller than child ID %d", parent.ID, child.ID)
	}
	if parent.Parent != 0 {
		t.Errorf("root span has parent %d", parent.Parent)
	}
	if child.Start != 150 || child.End != 3150 || child.Cycles() != 3000 {
		t.Errorf("child stamps wrong: %+v", child)
	}
	if parent.Start != 100 || parent.End != 3400 || parent.Cycles() != 3300 {
		t.Errorf("parent stamps wrong: %+v", parent)
	}
	if parent.Child != 3000 || parent.Children != 1 {
		t.Errorf("parent child accounting wrong: child=%d children=%d", parent.Child, parent.Children)
	}
	if parent.Self() != 300 || child.Self() != 3000 {
		t.Errorf("self times wrong: parent=%d child=%d", parent.Self(), child.Self())
	}
	if parent.Arg != 7 || child.Arg != 42 {
		t.Errorf("args wrong: parent=%d child=%d", parent.Arg, child.Arg)
	}

	s := r.Snapshot()
	pf := s.Spans[SpanKey{Module: "page-frame-manager", Kind: SpanFaultService}]
	if pf.Count != 1 || pf.Cycles != 3300 || pf.Child != 3000 || pf.Self() != 300 || pf.Max != 3300 {
		t.Errorf("fault-service histogram wrong: %+v", pf)
	}
	dr := s.Spans[SpanKey{Module: "disk-record-manager", Kind: SpanDiskRead}]
	if dr.Count != 1 || dr.Cycles != 3000 || dr.Child != 0 || dr.Max != 3000 {
		t.Errorf("disk-read histogram wrong: %+v", dr)
	}
}

// TestSpanProcessAttribution checks that span self-time — and only
// self-time, so nothing is double-counted — is charged to the process
// the processor was running, and that pid zero charges nobody.
// TestSpanProcessAttribution: a process's account holds the charges
// made while it ran, and counts the spans that ended then; span
// durations add nothing to it, and device work and work with no
// process running go to the no-process account.
func TestSpanProcessAttribution(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(16, clk)
	r.Register("m")

	r.SetRunningProcess(offTask, 9)
	clk.c = 0
	r.BeginSpan(SpanGate, "m", 1)
	r.Charge("m", 0, 30)
	clk.c = 40
	r.BeginSpan(SpanDiskRead, "m", 2)
	r.Charge("m", DeviceWork, 100)
	clk.c = 140
	r.EndSpan(SpanDiskRead)
	r.Charge("m", 0, 70)
	clk.c = 200 // the clock moves; only charges land in accounts
	r.EndSpan(SpanGate)

	r.SetRunningProcess(offTask, 0)
	clk.c = 300
	r.BeginSpan(SpanGate, "m", 3)
	r.Charge("m", 0, 5)
	clk.c = 400
	r.EndSpan(SpanGate)

	s := r.Snapshot()
	if len(s.Procs) != 2 {
		t.Fatalf("got %d process entries, want 2: %v", len(s.Procs), s.Procs)
	}
	if pa := s.Procs[9]; pa.Cycles != 100 || pa.Spans != 2 {
		t.Errorf("process 9 account = %+v, want 100 cycles over 2 spans", pa)
	}
	if pa := s.Procs[0]; pa.Cycles != 105 || pa.Spans != 0 {
		t.Errorf("no-process account = %+v, want 105 cycles and no spans", pa)
	}
	if got := s.Modules["m"].TotalCycles(); got != 205 {
		t.Errorf("module account = %d, want 205", got)
	}
}

// TestRunningProcessSetOffTask names a processor from off any task:
// the charges and spans that processor's task then makes are counted
// to the process, and those off any task are not.
func TestRunningProcessSetOffTask(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(16, clk)
	r.Register("m")
	r.SetRunningProcess(1, 7)
	r.BeginSpan(SpanGate, "m", 0)
	r.Charge("m", BoundCPU(), 10)
	r.EndSpan(SpanGate)
	runBound(t, 2, schedsim.Random(1), func(i int) {
		if i == 1 {
			r.BeginSpan(SpanGate, "m", 1)
			r.Charge("m", BoundCPU(), 100)
			r.EndSpan(SpanGate)
		}
	})
	s := r.Snapshot()
	if got := s.Procs[7]; got.Cycles != 100 || got.Spans != 1 || len(s.Procs) != 2 || s.Procs[0].Cycles != 10 {
		t.Errorf("process accounts %v, want process 7 charged 100 cycles over 1 span and 10 cycles to no process", s.Procs)
	}
}

// TestSpanRingWrap fills a 3-slot span ring with 5 spans and requires
// the exact drop count and the newest 3 in completion order.
func TestSpanRingWrap(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(3, clk)
	r.Register("m")
	for i := 0; i < 5; i++ {
		clk.c = int64(i) * 10
		r.BeginSpan(SpanSignal, "m", int64(i))
		clk.c = int64(i)*10 + 5
		r.EndSpan(SpanSignal)
	}
	if d := r.SpansDropped(); d != 2 {
		t.Errorf("SpansDropped = %d, want 2", d)
	}
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for i, sp := range spans {
		if sp.Arg != int64(i+2) {
			t.Errorf("span %d has arg %d, want %d (oldest two overwritten)", i, sp.Arg, i+2)
		}
	}
	s := r.Snapshot()
	h := s.Spans[SpanKey{Module: "m", Kind: SpanSignal}]
	if h.Count != 5 {
		t.Errorf("histogram count = %d, want 5: the ring wrap must not lose statistics", h.Count)
	}
}

// TestSpanMismatchCounting checks that an end with no open span, or
// with the wrong kind, is counted and otherwise ignored — the open
// span survives and can still close properly.
func TestSpanMismatchCounting(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(8, clk)
	r.Register("m")

	r.EndSpan(SpanGate) // nothing open
	r.BeginSpan(SpanFaultService, "m", 1)
	r.EndSpan(SpanDiskRead) // wrong kind
	clk.c = 50
	r.EndSpan(SpanFaultService) // proper close

	if m := r.SpanMismatches(); m != 2 {
		t.Errorf("SpanMismatches = %d, want 2", m)
	}
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Kind != SpanFaultService || spans[0].Cycles() != 50 {
		t.Errorf("open span damaged by mismatched ends: %v", spans)
	}
}

// TestSpanDepthOverflow opens past MaxSpanDepth and requires the
// excess begins to be dropped, their ends absorbed, and the retained
// nesting to close cleanly with no mismatches.
func TestSpanDepthOverflow(t *testing.T) {
	r := NewRecorder(MaxSpanDepth+8, &fakeClock{})
	r.Register("m")
	const extra = 3
	for i := 0; i < MaxSpanDepth+extra; i++ {
		r.BeginSpan(SpanGate, "m", int64(i))
	}
	for i := 0; i < MaxSpanDepth+extra; i++ {
		r.EndSpan(SpanGate)
	}
	if m := r.SpanMismatches(); m != 0 {
		t.Errorf("SpanMismatches = %d, want 0: overflow ends must be absorbed", m)
	}
	if n := len(r.Spans()); n != MaxSpanDepth {
		t.Errorf("completed %d spans, want %d", n, MaxSpanDepth)
	}
}

// TestBucketSemantics pins the log₂ bucket layout: bucket 0 holds
// zero, bucket i holds [2^(i-1), 2^i − 1], and BucketUpper reports the
// inclusive upper bound.
func TestBucketSemantics(t *testing.T) {
	cases := []struct {
		d      int64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.bucket)
		}
		if c.d > 0 {
			if u := BucketUpper(c.bucket); u < c.d {
				t.Errorf("BucketUpper(%d) = %d below member %d", c.bucket, u, c.d)
			}
			if l := BucketUpper(c.bucket - 1); l >= c.d {
				t.Errorf("BucketUpper(%d) = %d not below member %d of next bucket", c.bucket-1, l, c.d)
			}
		}
	}
	if BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %d, want 0", BucketUpper(0))
	}
}

// TestPercentileUpperBound checks the deterministic percentile
// semantics: the containing bucket's upper bound, clamped to the exact
// running Max, with Percentile(1) equal to Max.
func TestPercentileUpperBound(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(128, clk)
	r.Register("m")
	emit := func(d int64) {
		start := clk.c
		r.BeginSpan(SpanDiskRead, "m", 0)
		clk.c = start + d
		r.EndSpan(SpanDiskRead)
	}
	// 90 fast spans of 100 cycles (bucket 7, upper 127), 9 of 1000
	// (bucket 10, upper 1023), 1 of 5000 (bucket 13, upper 8191).
	for i := 0; i < 90; i++ {
		emit(100)
	}
	for i := 0; i < 9; i++ {
		emit(1000)
	}
	emit(5000)

	h := r.Snapshot().Spans[SpanKey{Module: "m", Kind: SpanDiskRead}]
	if h.Count != 100 || h.Max != 5000 {
		t.Fatalf("histogram wrong: count=%d max=%d", h.Count, h.Max)
	}
	if p := h.Percentile(0.5); p != 127 {
		t.Errorf("p50 = %d, want 127 (bucket upper bound of the 100-cycle bucket)", p)
	}
	if p := h.Percentile(0.99); p != 1023 {
		t.Errorf("p99 = %d, want 1023", p)
	}
	if p := h.Percentile(1); p != 5000 {
		t.Errorf("p100 = %d, want exact max 5000", p)
	}

	// Clamp: a single 5-cycle span sits in bucket 3 (upper 7), but the
	// reported percentile must never exceed the exact observed maximum.
	var one SpanStats
	one.Count = 1
	one.Cycles = 5
	one.Max = 5
	one.Buckets[bucketOf(5)] = 1
	if p := one.Percentile(0.5); p != 5 {
		t.Errorf("clamped percentile = %d, want 5 (Max)", p)
	}
	var zero SpanStats
	if p := zero.Percentile(0.99); p != 0 {
		t.Errorf("empty histogram percentile = %d, want 0", p)
	}
}

// TestSpanHotPathAllocationFree is the acceptance criterion for the
// latency layer: once a (module, kind) stat block and a process entry
// exist, a begin/end pair — ring write, histogram update, process
// accounting and all — allocates nothing.
func TestSpanHotPathAllocationFree(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(64, clk)
	r.Register("m")
	r.SetRunningProcess(offTask, 3)
	// Warm up: allocate the stat blocks and the process entry once.
	r.BeginSpan(SpanFaultService, "m", 0)
	r.Charge("m", 0, 1)
	r.EndSpan(SpanFaultService)

	allocs := testing.AllocsPerRun(200, func() {
		clk.c++
		r.BeginSpan(SpanFaultService, "m", 1)
		r.Charge("m", 0, 1)
		clk.c++
		r.EndSpan(SpanFaultService)
	})
	if allocs != 0 {
		t.Errorf("span hot path allocates %.1f objects per begin/end pair, want 0", allocs)
	}

	// The event path makes the same promise.
	r.Emit(Event{Kind: EvPageFetch, Module: "m"})
	allocs = testing.AllocsPerRun(200, func() {
		r.Emit(Event{Kind: EvPageFetch, Module: "m"})
	})
	if allocs != 0 {
		t.Errorf("event hot path allocates %.1f objects per emit, want 0", allocs)
	}
}

// TestFoldedStacks pins the collapsed-stack export: one line per
// distinct ancestry path, self-cycles aggregated, sorted, zero-width
// spans omitted.
func TestFoldedStacks(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(32, clk)
	r.Register("pf", "disk")
	storm := func() {
		start := clk.c
		r.BeginSpan(SpanFaultService, "pf", 0)
		clk.c = start + 10
		r.BeginSpan(SpanDiskRead, "disk", 0)
		clk.c = start + 110
		r.EndSpan(SpanDiskRead)
		clk.c = start + 130
		r.EndSpan(SpanFaultService)
	}
	storm()
	storm()
	// A root with zero self-time: all its cycles inside the child.
	start := clk.c
	r.BeginSpan(SpanFaultService, "pf", 0)
	r.BeginSpan(SpanDiskWrite, "disk", 0)
	clk.c = start + 50
	r.EndSpan(SpanDiskWrite)
	r.EndSpan(SpanFaultService)

	got := FoldedStacks(r.Spans())
	want := "pf:fault-service 60\n" +
		"pf:fault-service;disk:disk-read 200\n" +
		"pf:fault-service;disk:disk-write 50\n"
	if got != want {
		t.Errorf("FoldedStacks:\n%swant:\n%s", got, want)
	}
}

// TestNilRecorderSpansSafe mirrors the event discipline: a nil
// *Recorder accepts every span call and reports emptiness.
func TestNilRecorderSpansSafe(t *testing.T) {
	var r *Recorder
	r.BeginSpan(SpanGate, "m", 0)
	r.EndSpan(SpanGate)
	r.SetRunningProcess(offTask, 4)
	if r.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
	if r.SpansDropped() != 0 || r.SpanMismatches() != 0 {
		t.Error("nil recorder reported counters")
	}
	s := r.Snapshot()
	if len(s.Spans) != 0 || len(s.Procs) != 0 {
		t.Error("nil recorder snapshot has span state")
	}
}

// TestSpanPerCPUStacks binds tasks to distinct processors and
// requires their spans to nest per processor, not across: each span
// carries its own CPU stamp and roots its own stack.
func TestSpanPerCPUStacks(t *testing.T) {
	r := NewRecorder(64, &fakeClock{})
	r.Register("m")
	open := 0
	runBound(t, 3, schedsim.RoundRobin(), func(cpu int) {
		r.BeginSpan(SpanQuantum, "m", int64(cpu))
		open++
		// Round-robin runs every other task before this one returns,
		// so all three spans are open at once, one per processor.
		schedsim.Yield(schedsim.PointYield, "span open")
		if open != 3 {
			t.Errorf("cpu %d: %d spans open at the switch, want 3", cpu, open)
		}
		r.EndSpan(SpanQuantum)
	})

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, sp := range spans {
		if sp.Parent != 0 {
			t.Errorf("span on cpu %d nested under %d: stacks leaked across processors", sp.CPU-1, sp.Parent)
		}
		if sp.CPU != int32(sp.Arg)+1 {
			t.Errorf("span for cpu %d carries stamp %d", sp.Arg, sp.CPU)
		}
	}
	if m := r.SpanMismatches(); m != 0 {
		t.Errorf("SpanMismatches = %d, want 0", m)
	}
}

// TestPromTextGolden pins the full exposition format — per-module
// totals, per-kind cycle and op series, span histogram series with
// cumulative buckets, and per-process series — against a golden
// string, so the ordering is provably deterministic.
func TestPromTextGolden(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(64, clk)
	r.Register("alpha", "beta")

	clk.c = 10
	r.Emit(Event{Kind: EvGateCross, Module: "beta"})
	r.Charge("beta", 0, 40)
	clk.c = 20
	r.Emit(Event{Kind: EvPageFetch, Module: "alpha"})
	r.Emit(Event{Kind: EvPageFetch, Module: "alpha"})

	r.SetRunningProcess(offTask, 5)
	r.BeginSpan(SpanFaultService, "alpha", 0)
	r.Charge("alpha", 0, 330)
	clk.c = 120 // duration 100: bucket 7
	r.EndSpan(SpanFaultService)
	r.BeginSpan(SpanFaultService, "alpha", 0)
	r.Charge("alpha", 0, 330)
	clk.c = 123 // duration 3: bucket 2
	r.EndSpan(SpanFaultService)
	r.SetRunningProcess(offTask, 0)
	clk.c = 200

	want := strings.Join([]string{
		`multics_trace_events_total 3`,
		`multics_trace_dropped_total 0`,
		`multics_sim_cycles_total 200`,
		`multics_module_cycles_total{module="alpha"} 660`,
		`multics_module_ops_total{module="alpha",kind="page-fetch"} 2`,
		`multics_module_cycles_total{module="beta"} 40`,
		`multics_module_ops_total{module="beta",kind="gate-cross"} 1`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="0"} 0`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="1"} 0`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="3"} 1`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="7"} 1`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="15"} 1`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="31"} 1`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="63"} 1`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="127"} 2`,
		`multics_span_cycles_bucket{module="alpha",span="fault-service",le="+Inf"} 2`,
		`multics_span_cycles_sum{module="alpha",span="fault-service"} 103`,
		`multics_span_cycles_count{module="alpha",span="fault-service"} 2`,
		`multics_process_cycles_total{pid="0"} 40`,
		`multics_process_spans_total{pid="0"} 0`,
		`multics_process_cycles_total{pid="5"} 660`,
		`multics_process_spans_total{pid="5"} 2`,
		``,
	}, "\n")
	if got := r.Snapshot().PromText(); got != want {
		t.Errorf("PromText:\n%swant:\n%s", got, want)
	}
}

// TestSnapshotSinceSpans checks the diff semantics of the latency
// layer: counts and bucket contents subtract, Max stays the running
// maximum, and process accounting subtracts.
func TestSnapshotSinceSpans(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(32, clk)
	r.Register("m")
	r.SetRunningProcess(offTask, 2)
	emit := func(d int64) {
		start := clk.c
		r.BeginSpan(SpanDiskWrite, "m", 0)
		r.Charge("m", 0, d)
		clk.c = start + d
		r.EndSpan(SpanDiskWrite)
	}
	emit(1000)
	before := r.Snapshot()
	emit(10)
	emit(20)
	diff := r.Snapshot().Since(before)

	h := diff.Spans[SpanKey{Module: "m", Kind: SpanDiskWrite}]
	if h.Count != 2 || h.Cycles != 30 {
		t.Errorf("diff histogram = %+v, want 2 spans over 30 cycles", h)
	}
	if h.Max != 1000 {
		t.Errorf("diff Max = %d, want running maximum 1000", h.Max)
	}
	if h.Buckets[bucketOf(1000)] != 0 {
		t.Errorf("diff still counts the pre-snapshot span's bucket")
	}
	if h.Buckets[bucketOf(10)] != 1 || h.Buckets[bucketOf(20)] != 1 {
		t.Errorf("diff buckets wrong: %v", h.Buckets[:8])
	}
	if pa := diff.Procs[2]; pa.Cycles != 30 || pa.Spans != 2 {
		t.Errorf("diff process accounting = %+v, want 30 cycles over 2 spans", pa)
	}
}
