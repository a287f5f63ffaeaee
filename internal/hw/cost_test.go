package hw

import (
	"testing"

	"multics/internal/schedsim"
	"multics/internal/trace"
)

// onProcessor runs body on a schedsim task bound to processor 0, the
// way the deterministic executor runs a processor's work.
func onProcessor(tb testing.TB, body func()) {
	tb.Helper()
	ex := schedsim.New(schedsim.Config{Name: "charge"})
	ex.Go("cpu0", func() {
		defer trace.BindCPU(0)()
		body()
	})
	if err := ex.Run(); err != nil {
		tb.Fatal(err)
	}
}

// tracedMeter returns a meter with a ledger attached, as a traced
// kernel boots it.
func tracedMeter() (*CostMeter, *trace.Recorder) {
	m := new(CostMeter)
	rec := trace.NewRecorder(0, m)
	rec.Register("m", "d")
	m.Attach(rec)
	return m, rec
}

// BenchmarkCharge times one meter charge on each path a charge takes:
// off any task (the single-processor mode, the goroutine executor),
// on a task bound to a processor (the deterministic executor), and on
// a bound task of a traced kernel, where the ledger takes the charge
// too.
func BenchmarkCharge(b *testing.B) {
	b.Run("off-task", func(b *testing.B) {
		var m CostMeter
		for i := 0; i < b.N; i++ {
			m.Add("m", 1)
		}
	})
	b.Run("bound-task", func(b *testing.B) {
		var m CostMeter
		onProcessor(b, func() {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Add("m", 1)
			}
		})
	})
	b.Run("traced", func(b *testing.B) {
		m, rec := tracedMeter()
		onProcessor(b, func() {
			rec.SetRunningProcess(0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Add("m", 1)
			}
		})
	})
}

// TestChargeAllocatesNothing: an untraced charge allocates nothing, on
// a task or off, and a traced one allocates only the first time its
// module and its process are seen.
func TestChargeAllocatesNothing(t *testing.T) {
	var m CostMeter
	charge := func(m *CostMeter) func() {
		return func() {
			m.Add("m", 1)
			m.AddBody("m", 1, PLI)
			m.AddUnbound("d", 1)
		}
	}
	if a := testing.AllocsPerRun(100, charge(&m)); a != 0 {
		t.Errorf("untraced charges off any task allocate %.1f objects, want 0", a)
	}
	onProcessor(t, func() {
		if a := testing.AllocsPerRun(100, charge(&m)); a != 0 {
			t.Errorf("untraced charges on a bound task allocate %.1f objects, want 0", a)
		}
	})

	traced, rec := tracedMeter()
	onProcessor(t, func() {
		rec.SetRunningProcess(0, 7)
		charge(traced)() // the first sight of each module and process
		if a := testing.AllocsPerRun(100, charge(traced)); a != 0 {
			t.Errorf("traced charges allocate %.1f objects once seen, want 0", a)
		}
	})
	s := rec.Snapshot()
	if got, want := s.TotalCycles(), traced.Cycles(); got != want {
		t.Errorf("module accounts hold %d cycles, the meter %d", got, want)
	}
	// Each round charged process 7 for its processor work and no
	// process for its device work.
	if p0, p7 := s.Procs[0].Cycles, s.Procs[7].Cycles; p0+p7 != traced.Cycles() || p7 != (1+BodyCycles(1, PLI))*p0 {
		t.Errorf("process 7 holds %d cycles and no process %d, of %d", p7, p0, traced.Cycles())
	}
	if len(rec.Unknown()) != 0 {
		t.Errorf("charges to unregistered modules: %v", rec.Unknown())
	}
}

// TestChargeNamingNoModuleIsUnattributed: a charge that names no
// module lands in UnattributedModule's account, which the recorder's
// unknown-module lint reports.
func TestChargeNamingNoModuleIsUnattributed(t *testing.T) {
	m, rec := tracedMeter()
	m.Add("", 5)
	if got := rec.Snapshot().Modules[UnattributedModule].TotalCycles(); got != 5 {
		t.Errorf("unattributed account = %d, want 5", got)
	}
	if u := rec.Unknown(); len(u) != 1 || u[0] != UnattributedModule {
		t.Errorf("Unknown = %v, want [%s]", u, UnattributedModule)
	}
}
