package trace

import (
	"strings"
	"testing"
)

type fakeClock struct{ c int64 }

func (f *fakeClock) Cycles() int64 { return f.c }

func TestRecorderStampsAndCounts(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(8, clk)
	r.Register("page-frame-manager", "disk-record-manager")

	clk.c = 100
	r.Emit(Event{Kind: EvPageFetch, Module: "page-frame-manager"})
	clk.c = 250
	r.Emit(Event{Kind: EvDiskRead, Module: "disk-record-manager"})
	r.Charge("page-frame-manager", 1, 330)
	r.Charge("disk-record-manager", DeviceWork, 3000)

	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Seq != 1 || ev[0].Cycle != 100 || ev[0].Kind != EvPageFetch {
		t.Errorf("first event wrong: %+v", ev[0])
	}
	if ev[1].Seq != 2 || ev[1].Cycle != 250 {
		t.Errorf("second event wrong: %+v", ev[1])
	}

	s := r.Snapshot()
	if s.Events != 2 {
		t.Errorf("snapshot events = %d, want 2", s.Events)
	}
	pf := s.Modules["page-frame-manager"]
	if pf.Ops[EvPageFetch] != 1 || pf.TotalCycles() != 330 {
		t.Errorf("page-frame stats wrong: %+v", pf)
	}
	if got := s.TotalCycles(); got != 3330 {
		t.Errorf("TotalCycles = %d, want 3330", got)
	}
	// No process was running: both charges are the no-process
	// account's.
	if got := s.Procs[0].Cycles; got != 3330 {
		t.Errorf("no-process account = %d, want 3330", got)
	}
	if len(r.Unknown()) != 0 {
		t.Errorf("registered modules flagged unknown: %v", r.Unknown())
	}
}

func TestRingDropsOldest(t *testing.T) {
	r := NewRecorder(3, nil)
	r.Register("m")
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: EvIPC, Module: "m", Arg0: int64(i)})
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d retained events, want 3", len(ev))
	}
	if ev[0].Arg0 != 2 || ev[2].Arg0 != 4 {
		t.Errorf("ring kept wrong events: %+v", ev)
	}
	if d := r.Snapshot().Dropped; d != 2 {
		t.Errorf("Dropped = %d, want 2", d)
	}
	// Counters survive the drop.
	if s := r.Snapshot(); s.Modules["m"].Ops[EvIPC] != 5 {
		t.Errorf("ops = %d, want 5", s.Modules["m"].Ops[EvIPC])
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: EvFault, Module: "x"})
	if ev := r.Events(); ev != nil {
		t.Errorf("nil recorder Events = %v", ev)
	}
	if u := r.Unknown(); u != nil {
		t.Errorf("nil recorder Unknown = %v", u)
	}
	s := r.Snapshot()
	if s.Events != 0 || len(s.Modules) != 0 {
		t.Errorf("nil recorder snapshot = %+v", s)
	}
}

func TestUnknownModuleLint(t *testing.T) {
	r := NewRecorder(4, nil)
	r.Register("known")
	r.Emit(Event{Kind: EvIPC, Module: "known"})
	r.Emit(Event{Kind: EvIPC, Module: "drifted"})
	u := r.Unknown()
	if len(u) != 1 || u[0] != "drifted" {
		t.Errorf("Unknown = %v, want [drifted]", u)
	}
}

func TestSnapshotSince(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(16, clk)
	r.Register("a", "b")
	clk.c = 10
	r.Emit(Event{Kind: EvFault, Module: "a", Arg0: 1})
	r.Charge("a", 0, 50)
	before := r.Snapshot()
	clk.c = 40
	r.Emit(Event{Kind: EvFault, Module: "a", Arg0: 1})
	r.Charge("a", 0, 50)
	r.Emit(Event{Kind: EvDispatch, Module: "b"})
	r.Charge("b", 0, 80)
	diff := r.Snapshot().Since(before)
	if diff.Events != 2 || diff.Cycle != 30 {
		t.Errorf("diff events=%d cycle=%d, want 2, 30", diff.Events, diff.Cycle)
	}
	a := diff.Modules["a"]
	if a.Ops[EvFault] != 1 || a.TotalCycles() != 50 || a.Faults[1] != 1 {
		t.Errorf("diff module a = %+v", a)
	}
	if diff.Modules["b"].TotalCycles() != 80 || diff.Procs[0].Cycles != 130 {
		t.Errorf("diff module b = %+v", diff.Modules["b"])
	}
}

func TestTableAndPromDeterministic(t *testing.T) {
	build := func() Snapshot {
		clk := &fakeClock{}
		r := NewRecorder(16, clk)
		r.Register("low", "high", "idle")
		clk.c = 5
		r.Emit(Event{Kind: EvDiskRead, Module: "low"})
		r.Charge("low", DeviceWork, 3000)
		clk.c = 9
		r.Emit(Event{Kind: EvGateCross, Module: "high"})
		r.Charge("high", 1, 30)
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	layers := [][]string{{"low"}, {"high", "idle"}}
	if s1.Table(layers) != s2.Table(layers) {
		t.Error("Table not deterministic")
	}
	if s1.PromText() != s2.PromText() {
		t.Error("PromText not deterministic")
	}
	tab := s1.Table(layers)
	// All registered modules appear, even with zero events.
	for _, name := range []string{"low", "high", "idle"} {
		if !strings.Contains(tab, name) {
			t.Errorf("table missing module %q:\n%s", name, tab)
		}
	}
	if strings.Contains(tab, "UNREGISTERED") {
		t.Errorf("unexpected unregistered row:\n%s", tab)
	}
	prom := s1.PromText()
	if !strings.Contains(prom, `multics_module_cycles_total{module="low"} 3000`) {
		t.Errorf("prom missing low cycles:\n%s", prom)
	}
	if !strings.Contains(prom, `multics_module_ops_total{module="high",kind="gate-cross"} 1`) {
		t.Errorf("prom missing high ops:\n%s", prom)
	}
}

func TestFormatEventsStable(t *testing.T) {
	ev := []Event{
		{Seq: 1, Cycle: 10, Kind: EvFault, Module: "m", Arg0: 1, Arg1: 2, Arg2: 3},
		{Seq: 2, Cycle: 20, Kind: EvAdvance, Module: "m", Arg0: 7},
	}
	a, b := FormatEvents(ev), FormatEvents(ev)
	if a != b {
		t.Error("FormatEvents not deterministic")
	}
	if !strings.Contains(a, "fault") || !strings.Contains(a, "advance") {
		t.Errorf("missing kind names:\n%s", a)
	}
}

func TestRobustnessKindsNamedAndCounted(t *testing.T) {
	// The fault plane's and salvager's kinds are real members of the
	// kind space: named, formatted, and attributed like any other.
	for _, k := range []Kind{EvFaultInjected, EvSalvageRepair} {
		if int(k) >= NumKinds {
			t.Fatalf("kind %d outside NumKinds", int(k))
		}
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("Kind(%d) unnamed: %q", int(k), s)
		}
	}
	r := NewRecorder(8, nil)
	r.Register("disk-record-manager", "volume-salvager")
	r.Emit(Event{Kind: EvFaultInjected, Module: "disk-record-manager", Arg0: 2, Arg1: 1})
	r.Emit(Event{Kind: EvSalvageRepair, Module: "volume-salvager", Arg0: 4})
	s := r.Snapshot()
	if s.Modules["disk-record-manager"].Ops[EvFaultInjected] != 1 {
		t.Error("fault-injected not attributed to the disk manager")
	}
	if s.Modules["volume-salvager"].Ops[EvSalvageRepair] != 1 {
		t.Error("salvage-repair not attributed to the salvager")
	}
	if len(r.Unknown()) != 0 {
		t.Errorf("registered modules flagged unknown: %v", r.Unknown())
	}
	out := FormatEvents(r.Events())
	if !strings.Contains(out, "fault-injected") || !strings.Contains(out, "salvage-repair") {
		t.Errorf("kind names missing from formatted stream:\n%s", out)
	}
}
