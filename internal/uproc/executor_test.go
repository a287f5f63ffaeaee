package uproc

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"multics/internal/aim"
	"multics/internal/hw"
	"multics/internal/schedsim"
	"multics/internal/trace"
)

// TestSimTasksChargeTheirOwnProcessor binds two sim tasks to different
// processors and lets RoundRobin switch them between every pair of
// charges: each charge must land on its own processor's cycle account,
// and each span on its own processor's span stack (a shared stack
// would nest one processor's span inside the other's).
func TestSimTasksChargeTheirOwnProcessor(t *testing.T) {
	meter := new(hw.CostMeter)
	rec := trace.NewRecorder(0, meter)
	cpus := []*hw.Processor{hw.NewProcessor(0, nil, meter), hw.NewProcessor(1, nil, meter)}
	const rounds = 8
	switches := 0
	err := SimExecutor{Strategy: schedsim.RoundRobin()}.Run(cpus, func(cpu *hw.Processor) {
		per := int64(10 * (cpu.ID + 1))
		for i := 0; i < rounds; i++ {
			rec.BeginSpan(trace.SpanFaultService, "pageframe", int64(cpu.ID))
			meter.Add(ModuleName, per)
			schedsim.Yield(schedsim.PointYield, "between charges")
			if trace.BoundCPU() != int32(cpu.ID)+1 {
				t.Errorf("cpu%d: bound to %d after a switch", cpu.ID, trace.BoundCPU()-1)
			}
			switches++
			meter.Add(ModuleName, per)
			rec.EndSpan(trace.SpanFaultService)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if switches != 2*rounds {
		t.Fatalf("%d yields returned, want %d", switches, 2*rounds)
	}
	for _, cpu := range cpus {
		if got, want := meter.CPUCycles(cpu.ID), int64(2*rounds*10*(cpu.ID+1)); got != want {
			t.Errorf("cpu%d account = %d cycles, want %d", cpu.ID, got, want)
		}
	}
	if meter.CPUCycles(2) != 0 {
		t.Errorf("cycles charged to an unused processor: %d", meter.CPUCycles(2))
	}
	spans := rec.Spans()
	if len(spans) != 2*rounds {
		t.Fatalf("%d spans recorded, want %d", len(spans), 2*rounds)
	}
	for _, s := range spans {
		if s.Parent != 0 || s.Children != 0 {
			t.Errorf("span %d on cpu %d nested across processors: parent %d, %d children", s.ID, s.CPU-1, s.Parent, s.Children)
		}
		if s.CPU != int32(s.Arg)+1 {
			t.Errorf("span begun by cpu%d stamped cpu %d", s.Arg, s.CPU-1)
		}
	}
	if trace.BoundCPU() != 0 {
		t.Error("binding leaked out of the executor run")
	}
}

// TestGoroutineExecutorRefusedInsideSim: a goroutine started while a sim
// executor runs would be taken for the token holder, so the goroutine
// executor refuses to start there.
func TestGoroutineExecutorRefusedInsideSim(t *testing.T) {
	cpus := []*hw.Processor{hw.NewProcessor(0, nil, nil)}
	ran := false
	var inner error
	err := SimExecutor{Seed: 1}.Run(cpus, func(*hw.Processor) {
		inner = GoroutineExecutor{}.Run(cpus, func(*hw.Processor) { ran = true })
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(inner, ErrInsideSim) {
		t.Errorf("goroutine executor inside a sim task returned %v, want ErrInsideSim", inner)
	}
	if ran {
		t.Error("goroutine executor ran its body inside a sim task")
	}
	if err := (GoroutineExecutor{}).Run(cpus, func(*hw.Processor) { ran = true }); err != nil || !ran {
		t.Errorf("goroutine executor after the sim run: err %v, ran %v", err, ran)
	}
}

// TestGoroutineExecutorBindsNothing: the goroutine executor's bodies
// run off any schedsim task, so they carry no processor binding and
// their cycles reach the meter's total only.
func TestGoroutineExecutorBindsNothing(t *testing.T) {
	meter := new(hw.CostMeter)
	cpus := []*hw.Processor{hw.NewProcessor(0, nil, meter), hw.NewProcessor(1, nil, meter)}
	var bound [2]int32
	err := GoroutineExecutor{}.Run(cpus, func(cpu *hw.Processor) {
		bound[cpu.ID] = trace.BoundCPU()
		meter.Add(ModuleName, 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, b := range bound {
		if b != 0 {
			t.Errorf("cpu%d body bound to %d, want unbound", id, b-1)
		}
		if got := meter.CPUCycles(id); got != 0 {
			t.Errorf("cpu%d account = %d cycles, want 0", id, got)
		}
	}
	if got := meter.Cycles(); got != 20 {
		t.Errorf("meter total = %d cycles, want 20", got)
	}
}

// TestWorkerUnbindsItsProcessor: once a quanta run returns, its
// processors run no process, so a span they record afterwards (the
// next run's pre-dispatch work, a serial phase) is charged to none
// rather than to the last process dispatched there.
func TestWorkerUnbindsItsProcessor(t *testing.T) {
	f := newFixtureWith(t, 3, true)
	rec := f.rec
	p, err := f.m.Create("u.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpus := []*hw.Processor{hw.NewProcessor(0, nil, f.meter)}
	ex := SimExecutor{Seed: 1}
	if n, err := f.m.RunQuantumWith(ex, cpus, 1, nil); err != nil || n != 1 {
		t.Fatalf("RunQuantumWith = %d, %v", n, err)
	}
	before := rec.Snapshot().Procs[p.ID()]
	if err := ex.Run(cpus, func(*hw.Processor) {
		rec.BeginSpan(trace.SpanFaultService, "pageframe", 0)
		f.meter.Add(ModuleName, 100)
		rec.EndSpan(trace.SpanFaultService)
	}); err != nil {
		t.Fatal(err)
	}
	if after := rec.Snapshot().Procs[p.ID()]; after != before {
		t.Errorf("pid %d charged %+v after its quanta run returned (had %+v)", p.ID(), after, before)
	}
}

// TestQuantumPhaseAllocatesLittle pins the host cost of a warm
// two-processor quantum phase under the sim executor. The executor's
// engine (its default strategy included), carriers and decision
// scratch, SimExecutor's task functions and names, and
// RunQuantumWith's state are all reused from the phase before, and
// the executor's handle stays on the stack, so a phase allocates
// nothing. The runtime allocates now and then for itself (records for
// a new OS thread when the host is loaded, say), so the figure is the
// least of three rounds: an allocation the phase makes shows in all.
func TestQuantumPhaseAllocatesLittle(t *testing.T) {
	const procs, warm, phases, rounds = 4, 16, 1024, 3
	f := newFixture(t, 4) // 2 kernel + 2 multiplexable
	for i := 0; i < procs; i++ {
		if _, err := f.m.Create("u.x", aim.Bottom); err != nil {
			t.Fatal(err)
		}
	}
	cpus := []*hw.Processor{hw.NewProcessor(0, nil, f.meter), hw.NewProcessor(1, nil, f.meter)}
	var ex Executor = SimExecutor{Seed: 1977}
	var ran int
	var err error
	run := func(n int) {
		for i := 0; i < n && err == nil; i++ {
			var r int
			r, err = f.m.RunQuantumWith(ex, cpus, 2, nil)
			ran += r
		}
	}
	run(warm)
	per, objs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(phases)
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/phases)
		objs = min(objs, (after.Mallocs-before.Mallocs)/phases)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4*(warm+rounds*phases) {
		t.Fatalf("%d quanta ran, want %d", ran, 4*(warm+rounds*phases))
	}
	t.Logf("%d B in %d objects per quantum phase", per, objs)
	if per != 0 || objs != 0 {
		t.Errorf("a warm quantum phase allocated %d bytes in %d objects, want 0", per, objs)
	}
}
