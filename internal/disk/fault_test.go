package disk

import (
	"errors"
	"fmt"
	"testing"

	"multics/internal/hw"
	"multics/internal/trace"
)

func faultFixture(t *testing.T, plan *FaultPlan, rec *trace.Recorder) (*Volumes, *Pack) {
	t.Helper()
	vols := NewVolumes(&hw.CostMeter{}, rec)
	p, err := vols.AddPack("dska", 16)
	if err != nil {
		t.Fatal(err)
	}
	vols.SetFaultPlan(plan)
	return vols, p
}

func TestNilPlanInjectsNothing(t *testing.T) {
	_, p := faultFixture(t, nil, nil)
	r, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]hw.Word, hw.PageWords)
	if err := p.WriteRecord(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadRecord(r, buf); err != nil {
		t.Fatal(err)
	}
	var nilPlan *FaultPlan
	if nilPlan.Mutations() != 0 || nilPlan.Crashed() {
		t.Error("nil plan reports activity")
	}
}

func TestRuleInjectsTransientByOccurrence(t *testing.T) {
	// The second write (occurrence 1) fails once, transiently.
	plan := &FaultPlan{Rules: []Rule{{Op: OpWrite, After: 1, Times: 1}}}
	_, p := faultFixture(t, plan, nil)
	buf := make([]hw.Word, hw.PageWords)
	r, err := p.AllocRecord()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteRecord(r, buf); err != nil {
		t.Fatalf("write #0: %v", err)
	}
	err = p.WriteRecord(r, buf)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("write #1 = %v, want transient", err)
	}
	if errors.Is(err, ErrPermanent) || errors.Is(err, ErrCrashed) {
		t.Fatalf("transient fault also matches other sentinels: %v", err)
	}
	if err := p.WriteRecord(r, buf); err != nil {
		t.Fatalf("write #2 after transient: %v", err)
	}
}

func TestRulePermanentAndPackScoped(t *testing.T) {
	plan := &FaultPlan{Rules: []Rule{{Op: OpAlloc, Pack: "dskb", Permanent: true}}}
	vols, p := faultFixture(t, plan, nil)
	pb, err := vols.AddPack("dskb", 16)
	if err != nil {
		t.Fatal(err)
	}
	// The rule names dskb only; dska allocates freely.
	if _, err := p.AllocRecord(); err != nil {
		t.Fatalf("alloc on unscoped pack: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := pb.AllocRecord(); !errors.Is(err, ErrPermanent) {
			t.Fatalf("alloc #%d on dskb = %v, want permanent", i, err)
		}
	}
}

func TestCrashAtMutationHaltsEverything(t *testing.T) {
	plan := &FaultPlan{CrashAtMutation: 3}
	_, p := faultFixture(t, plan, nil)
	buf := make([]hw.Word, hw.PageWords)
	r, err := p.AllocRecord() // mutation 1
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteRecord(r, buf); err != nil { // mutation 2
		t.Fatal(err)
	}
	// Mutation 3 is the crash: it does not apply.
	if _, err := p.CreateEntry(9, false, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("mutation at crash point = %v, want crashed", err)
	}
	if !plan.Crashed() {
		t.Error("plan not marked crashed")
	}
	if liveEntries(p) != 0 {
		t.Error("the crashing mutation applied")
	}
	// After the crash even reads fail.
	if err := p.ReadRecord(r, buf); !errors.Is(err, ErrCrashed) {
		t.Errorf("read after crash = %v, want crashed", err)
	}
	if _, err := p.AllocRecord(); !errors.Is(err, ErrCrashed) {
		t.Errorf("alloc after crash = %v, want crashed", err)
	}
	if plan.Mutations() != 3 {
		t.Errorf("mutation count = %d, want 3 (post-crash attempts do not count)", plan.Mutations())
	}
	// The pack stays dirty: the salvager's cue.
	if !p.Dirty() {
		t.Error("pack clean after crash")
	}
}

func TestSeededTransientsAreDeterministic(t *testing.T) {
	run := func() []int {
		plan := &FaultPlan{Seed: 42, TransientEvery: 4}
		_, p := faultFixture(t, plan, nil)
		buf := make([]hw.Word, hw.PageWords)
		r, err := retried(p.AllocRecord)
		if err != nil {
			t.Fatal(err)
		}
		var failed []int
		for i := 0; i < 64; i++ {
			if err := p.WriteRecord(r, buf); err != nil {
				if !errors.Is(err, ErrTransient) {
					t.Fatalf("write %d: %v", i, err)
				}
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("seeded stream injected nothing in 64 writes")
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ at %d: %v vs %v", i, a, b)
		}
	}
}

// retried adapts a value-returning operation to Retry for the test
// above.
func retried(fn func() (RecordAddr, error)) (RecordAddr, error) {
	var r RecordAddr
	err := Retry(nil, func() error {
		var err error
		r, err = fn()
		return err
	})
	return r, err
}

func TestRetryRecoversTransientsOnly(t *testing.T) {
	meter := &hw.CostMeter{}

	// A fault that clears within MaxRetries attempts succeeds, and
	// the deterministic backoff is charged.
	calls := 0
	err := Retry(meter, func() error {
		calls++
		if calls <= 2 {
			return fmt.Errorf("test: %w", ErrTransient)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retry = %v after %d calls", err, calls)
	}
	if meter.Cycles() == 0 {
		t.Error("no backoff cycles charged")
	}

	// A fault that never clears gives up after MaxRetries+1 attempts.
	calls = 0
	err = Retry(nil, func() error { calls++; return fmt.Errorf("test: %w", ErrTransient) })
	if !errors.Is(err, ErrTransient) || calls != MaxRetries+1 {
		t.Errorf("persistent transient: %v after %d calls", err, calls)
	}

	// Permanent faults are not retried at all.
	calls = 0
	err = Retry(nil, func() error { calls++; return fmt.Errorf("test: %w", ErrPermanent) })
	if !errors.Is(err, ErrPermanent) || calls != 1 {
		t.Errorf("permanent fault: %v after %d calls", err, calls)
	}
}

func TestOpStrings(t *testing.T) {
	for _, op := range []Op{OpRead, OpWrite, OpAlloc, Op(9)} {
		if op.String() == "" {
			t.Errorf("Op(%d) empty", int(op))
		}
	}
}

func TestInjectedFaultsAreTraced(t *testing.T) {
	plan := &FaultPlan{
		Rules:           []Rule{{Op: OpWrite, After: 0, Times: 1}},
		CrashAtMutation: 4,
	}
	rec := trace.NewRecorder(16, nil)
	rec.Register(ModuleName)
	_, p := faultFixture(t, plan, rec)

	buf := make([]hw.Word, hw.PageWords)
	r, err := p.AllocRecord() // mutation 1
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteRecord(r, buf); !errors.Is(err, ErrTransient) { // mutation 2, injected
		t.Fatalf("first write = %v, want transient", err)
	}
	if err := p.WriteRecord(r, buf); err != nil { // mutation 3
		t.Fatal(err)
	}
	if err := p.WriteRecord(r, buf); !errors.Is(err, ErrCrashed) { // mutation 4: crash
		t.Fatalf("crash write = %v, want crashed", err)
	}

	var got []trace.Event
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvFaultInjected {
			got = append(got, ev)
		}
	}
	if len(got) != 2 {
		t.Fatalf("%d fault-injected events, want 2 (transient + crash)", len(got))
	}
	if got[0].Module != ModuleName || got[0].Arg0 != int64(OpWrite) || got[0].Arg1 != 0 {
		t.Errorf("transient event = %+v", got[0])
	}
	if got[1].Arg1 != 2 {
		t.Errorf("crash event class = %d, want 2", got[1].Arg1)
	}
	if len(rec.Unknown()) != 0 {
		t.Errorf("fault events from unregistered module: %v", rec.Unknown())
	}
}
