package core

// Failure injection: the kernel must degrade into clean errors, never
// corruption or panics, when the environment fails under it.

import (
	"errors"
	"testing"

	"multics/internal/aim"
	"multics/internal/directory"
	"multics/internal/hw"
	"multics/internal/knownseg"
	"multics/internal/segment"
	"multics/internal/trace"
	"multics/internal/uproc"
)

func TestFailureDemountedPackUnderActiveSegment(t *testing.T) {
	k := boot(t, nil)
	cpu, p := user(t, k, "a.x", aim.Bottom)
	// Place a file on the second pack by filling... simpler: create
	// it normally (first pack) and demount that pack.
	if _, err := k.CreateFile(cpu, p, nil, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Write(cpu, p, segno, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Vols.Demount("dska"); err != nil {
		t.Fatal(err)
	}
	// A resident page still reads (it is in core)...
	if _, err := k.Read(cpu, p, segno, 0); err != nil {
		t.Errorf("read of resident page after demount: %v", err)
	}
	// ...but growth and anything needing the pack fails cleanly.
	err = k.Write(cpu, p, segno, 5*hw.PageWords, 1)
	if err == nil {
		t.Error("growth on a demounted pack succeeded")
	}
	if _, ok := err.(*hw.Fault); ok {
		t.Errorf("demount surfaced as a hardware fault: %v", err)
	}
	// The system as a whole still runs: a second process works on
	// the other pack? (root is on dska, so directory ops fail —
	// but they fail as errors.)
	if _, err := k.CreateFile(cpu, p, nil, "g", nil, aim.Bottom); err == nil {
		t.Error("create on demounted root pack succeeded")
	}
}

func TestFailureASTExhaustion(t *testing.T) {
	k := boot(t, nil)
	cpu, p := user(t, k, "a.x", aim.Bottom)
	capacity := k.Segs.Capacity()
	// Fill the AST: directories stay active, so create enough of
	// them. Leave the already-active count in place.
	made := 0
	var lastErr error
	for i := 0; k.Segs.ActiveCount() < capacity; i++ {
		_, lastErr = k.CreateDir(cpu, p, nil, namegen(i), directory.Public(hw.Read|hw.Write), aim.Bottom)
		if lastErr != nil {
			break
		}
		made++
	}
	if lastErr == nil {
		// AST now full: the next activation must fail with the
		// typed error, reaching the user as an error, not a hang.
		_, err := k.CreateDir(cpu, p, nil, "straw", directory.Public(hw.Read|hw.Write), aim.Bottom)
		lastErr = err
	}
	if !errors.Is(lastErr, segment.ErrASTFull) {
		t.Fatalf("AST exhaustion surfaced as %v, want ErrASTFull", lastErr)
	}
	// Recovery: deactivate one directory segment and retry.
	// (Directory segments stay active by design; use a file
	// instead — create fails at the dir segment activation, so
	// free a slot by deactivating a file segment.)
	if _, err := k.Dirs.List("a.x", aim.Bottom, k.Dirs.RootID()); err != nil {
		t.Errorf("system unhealthy after AST exhaustion: %v", err)
	}
	_ = made
}

func namegen(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return string([]byte{letters[i%26], letters[(i/26)%26], letters[(i/676)%26]})
}

func TestFailureKSTExhaustion(t *testing.T) {
	k := boot(t, nil)
	cpu, p := user(t, k, "a.x", aim.Bottom)
	// Fill the process's KST.
	var lastErr error
	for i := 0; lastErr == nil; i++ {
		name := "k" + namegen(i)
		if _, lastErr = k.CreateFile(cpu, p, nil, name, nil, aim.Bottom); lastErr != nil {
			break
		}
		_, lastErr = k.OpenPath(cpu, p, []string{name})
	}
	if !errors.Is(lastErr, knownseg.ErrKSTFull) && !errors.Is(lastErr, segment.ErrASTFull) {
		t.Fatalf("KST exhaustion surfaced as %v", lastErr)
	}
	// A second process is unaffected.
	p2, err := k.CreateProcess("b.y", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := k.CPUs[1]
	k.Attach(cpu2, p2)
	if _, err := k.CreateFile(cpu2, p2, nil, "mine", nil, aim.Bottom); err != nil {
		t.Fatalf("second process cannot create: %v", err)
	}
	if _, err := k.OpenPath(cpu2, p2, []string{"mine"}); err != nil {
		t.Errorf("second process cannot open: %v", err)
	}
}

func TestFailureMessageQueueOverflow(t *testing.T) {
	k := boot(t, nil)
	// Fill the real-memory queue without draining.
	var err error
	n := 0
	for ; err == nil && n <= k.Queue.Cap()+1; n++ {
		err = k.Procs.Wakeup(1, 0)
	}
	if !errors.Is(err, uproc.ErrQueueFull) {
		t.Fatalf("overflow surfaced as %v", err)
	}
	// Draining recovers it.
	if _, err := k.Procs.DeliverEvents(); err != nil {
		t.Fatal(err)
	}
	if err := k.Procs.Wakeup(1, 0); err != nil {
		t.Errorf("queue unusable after drain: %v", err)
	}
}

func TestFailureQuotaExhaustionIsRecoverable(t *testing.T) {
	k := boot(t, nil)
	cpu, p := user(t, k, "a.x", aim.Bottom)
	dirID, err := k.CreateDir(cpu, p, nil, "jail", directory.Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DesignateQuota(cpu, p, dirID, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, p, []string{"jail"}, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"jail", "f"})
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	pages := 0
	for ; werr == nil && pages < 10; pages++ {
		werr = k.Write(cpu, p, segno, pages*hw.PageWords, 1)
	}
	if werr == nil {
		t.Fatal("quota never enforced")
	}
	// Raising the limit un-wedges the process mid-flight.
	e, err := p.KST().Entry(segno)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Cells.SetLimit(e.Cell, 100); err != nil {
		t.Fatal(err)
	}
	if err := k.Write(cpu, p, segno, 9*hw.PageWords, 1); err != nil {
		t.Errorf("write after limit raise: %v", err)
	}
	// Already-written data is intact.
	if w, err := k.Read(cpu, p, segno, 0); err != nil || w != 1 {
		t.Errorf("data after quota storm = %d, %v", w, err)
	}
}

func TestFailureBothPacksFull(t *testing.T) {
	// Growth when no pack anywhere has space: the relocation path
	// itself fails, and the error must be a clean quota/disk error.
	k := boot(t, func(c *Config) {
		c.Packs = []PackSpec{{ID: "p0", Records: 6}, {ID: "p1", Records: 6}}
		c.RootQuota = 100
	})
	cpu, p := user(t, k, "a.x", aim.Bottom)
	if _, err := k.CreateFile(cpu, p, nil, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	written := 0
	for i := 0; i < 20 && werr == nil; i++ {
		werr = k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(i+1))
		if werr == nil {
			written++
		}
	}
	if werr == nil {
		t.Fatal("writes never failed with 12 records total")
	}
	if _, ok := werr.(*hw.Fault); ok {
		t.Errorf("exhaustion surfaced as a hardware fault: %v", werr)
	}
	// Everything already written is still readable.
	for i := 0; i < written; i++ {
		w, err := k.Read(cpu, p, segno, i*hw.PageWords)
		if err != nil || w != hw.Word(i+1) {
			t.Fatalf("page %d after exhaustion = %d, %v", i, w, err)
		}
	}
}

// TestRetryBudgetObservability freezes the trap-vs-reclaim window in
// its inconsistent intermediate state — quota trap raised while the
// file map still names a stored record — so the reference's fault
// service can never make progress. The retry budget must then become
// visible twice: the half-budget trace event and counter while the
// run is still diagnosable, and the distinct wrapped error at
// exhaustion.
func TestRetryBudgetObservability(t *testing.T) {
	k := boot(t, func(c *Config) {
		c.AssocOff = true // every reference walks the tables and sees the trap
		c.TraceEvents = 1 << 12
	})
	cpu, p := user(t, k, "loop.x", aim.Bottom)
	if _, err := k.CreateFile(cpu, p, nil, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	// Materialize page 0: Grow charges quota, allocates its record,
	// and marks the map stored.
	if err := k.Write(cpu, p, segno, 0, 7); err != nil {
		t.Fatal(err)
	}
	sdw, err := p.DT().Get(segno)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the window: not-present plus quota trap, map unchanged.
	if _, err := sdw.Table.Update(0, func(d *hw.PTW) {
		d.Present = false
		d.Frame = 0
		d.QuotaTrap = true
	}); err != nil {
		t.Fatal(err)
	}

	_, err = k.Read(cpu, p, segno, 0)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("got %v, want ErrRetryBudget", err)
	}
	if !errors.Is(err, ErrFaultLoop) {
		t.Errorf("ErrRetryBudget must wrap ErrFaultLoop for existing callers; got %v", err)
	}
	half, exhausted := k.RetryStats()
	if half != 1 || exhausted != 1 {
		t.Errorf("RetryStats = (%d, %d), want (1, 1)", half, exhausted)
	}
	if races := k.Cells.Stats().GrowRaces; races == 0 {
		t.Error("every retry lost the grow race, but GrowRaces = 0: the counter is not wired to the ErrGrowRace site")
	}
	found := false
	for _, e := range k.Trace.Events() {
		if e.Kind == trace.EvRetryPressure {
			found = true
			if e.Arg2 != 128 {
				t.Errorf("retry-pressure event at try %d, want 128 (half of the budget)", e.Arg2)
			}
		}
	}
	if !found {
		t.Error("no retry-pressure event in the trace: the half-budget warning is not emitted")
	}
}
